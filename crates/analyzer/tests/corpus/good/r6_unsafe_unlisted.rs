// Corpus fixture: a file the allowlist does not name that declares the
// allowlisted module and names `unsafe` only in a lint, a comment and a string.
// Expected: quiet.
#[allow(unsafe_code)]
mod simd;

pub fn describe() -> &'static str {
    "no unsafe here"
}
