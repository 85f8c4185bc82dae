// Corpus fixture: a documented `unsafe` block in a file the allowlist does
// not name. Expected: one `unsafe-audit` finding — a `// SAFETY:` comment
// does not license `unsafe` outside the allowlisted files.
pub fn read_raw(p: *const u8) -> u8 {
    // SAFETY: the caller guarantees `p` is valid for reads, per this
    // function's documented contract.
    unsafe { *p }
}
