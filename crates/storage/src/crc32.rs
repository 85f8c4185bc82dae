//! CRC-32/IEEE (the polynomial of zip, PNG and ethernet): the checksum over
//! every WAL frame's payload and every wire frame's payload.
//!
//! # Backends
//!
//! A wide query's records are checksummed twice, once when the server frames
//! them and once when the client reads them, so the checksum has two
//! implementations behind the one [`crc32`] function:
//!
//! * **`pclmulqdq`** — on x86-64 CPUs with carry-less multiplication, four
//!   128-bit lanes fold 64 bytes per step, the lanes fold into one, and a
//!   Barrett reduction brings the remainder to 32 bits (Gopal et al., "Fast
//!   CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel, 2009). It lives in a private module, one of the two places in the
//!   workspace allowed `unsafe` (`docs/invariants.md`, R6).
//! * **`table`** — portable and a byte at a time, through one 256-entry table
//!   built at compile time.
//!
//! Inputs under 64 bytes, and the last 0–15 bytes after a fold, take the
//! table path. Dispatch reads the CPUID result std caches after the first
//! call; there is no setting for it, and [`backend`] names the one in use.
//! Both produce the same checksum, so the bytes on disk and on the wire do not
//! depend on the CPU: a test runs them side by side against a bitwise
//! reference at every length up to 4 200 bytes and every offset up to 15.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul;

/// The reflected CRC-32/IEEE generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLE[b]` is the register after shifting byte `b` through it.
static TABLE: [u32; 256] = table();

const fn table() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[i] = crc;
        i += 1;
    }
    t
}

/// CRC-32/IEEE over `bytes`, on the best backend this CPU has.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(clmul) = clmul::Pclmul::detect() {
        let (blocks, tail) = bytes.as_chunks::<16>();
        return !update_table(clmul.fold(!0, blocks), tail);
    }
    !update_table(!0, bytes)
}

/// The backend this process uses for inputs of 64 bytes and more:
/// `"pclmulqdq"` on an x86-64 CPU with carry-less multiplication and SSE4.1,
/// `"table"` everywhere else.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if clmul::Pclmul::detect().is_some() {
        return "pclmulqdq";
    }
    "table"
}

/// Advances the CRC register `crc` (the running value before the final
/// inversion) over `bytes` on the portable path.
fn update_table(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = TABLE[usize::from(crc as u8 ^ b)] ^ (crc >> 8);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, one bit at a time and without tables: the reference
    /// both backends are held to.
    fn reference_update(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    type Update = Box<dyn Fn(u32, &[u8]) -> u32>;

    /// Every backend this CPU can run, by name, table first. Each is called
    /// on every input length, below the dispatch threshold included.
    fn backends() -> Vec<(&'static str, Update)> {
        let mut out: Vec<(&'static str, Update)> = vec![("table", Box::new(update_table))];
        #[cfg(target_arch = "x86_64")]
        match clmul::Pclmul::detect() {
            Some(clmul) => out.push((
                "pclmulqdq",
                Box::new(move |crc, bytes| {
                    let (blocks, tail) = bytes.as_chunks::<16>();
                    update_table(clmul.fold(crc, blocks), tail)
                }),
            )),
            None => println!(
                "pclmulqdq leg skipped: this CPU does not report carry-less multiply and SSE4.1"
            ),
        }
        out
    }

    #[test]
    fn crc32_backend_is_pclmulqdq_exactly_when_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        let expected = if std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            "pclmulqdq"
        } else {
            "table"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let expected = "table";
        assert_eq!(backend(), expected);
    }

    #[test]
    fn crc32_every_backend_matches_the_bitwise_reference() {
        let backends = backends();
        let names: Vec<&str> = backends.iter().map(|(name, _)| *name).collect();
        println!("CRC-32 backends tested: {}", names.join(", "));

        // A seeded buffer (xorshift64). Lengths 0..=4200 cross every exit of
        // the 64-byte fold loop and every 0–15-byte tail; offsets 0..16 put
        // the 16-byte loads at every alignment.
        const MAX_LEN: usize = 4200;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..MAX_LEN + 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for offset in 0..16 {
            let input = &data[offset..offset + MAX_LEN];
            // The reference register after each prefix, built incrementally.
            let mut want = !0u32;
            for len in 0..=MAX_LEN {
                if len > 0 {
                    want = reference_update(want, &input[len - 1..len]);
                }
                for (name, update) in &backends {
                    assert_eq!(
                        update(!0, &input[..len]),
                        want,
                        "{name}, length {len}, offset {offset}"
                    );
                }
            }
        }

        // The dispatch on both sides of its threshold, and a register that is
        // not the initial one.
        for len in [0, 63, 64, 1000] {
            assert_eq!(crc32(&data[..len]), !reference_update(!0, &data[..len]));
        }
        for (name, update) in &backends {
            assert_eq!(
                update(0x1234_5678, &data[..1000]),
                reference_update(0x1234_5678, &data[..1000]),
                "{name}, continued"
            );
        }
    }
}
