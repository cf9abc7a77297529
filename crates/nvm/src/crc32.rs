//! CRC-32 (IEEE 802.3) — the integrity tag used by every persistent
//! structure that must detect torn or bit-rotted data: checkpoint commit
//! records, backup page images, allocator-journal records and ext-sync
//! ring slots.
//!
//! Implemented in-crate (reflected polynomial `0xEDB88320`) so the
//! workspace stays free of external dependencies. Every CoW duplicate,
//! stop-and-copy and migrate-in CRCs a whole 4 KiB page, so the loop is
//! slicing-by-8: eight bytes per step through eight derived tables
//! instead of one byte per step through one.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic bytewise table; `TABLES[k][i]` is the CRC contribution of byte
/// `i` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of `data` (standard init `!0`, final xor `!0`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continues a CRC-32 computation: `crc32_update(crc32(a), b) == crc32(a ++ b)`.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = (c >> 8) ^ t[0][((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-byte-per-step reference loop the sliced version replaced.
    fn crc32_bytewise(crc: u32, data: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in data {
            c = (c >> 8) ^ TABLES[0][((c ^ b as u32) & 0xFF) as usize];
        }
        !c
    }

    /// xorshift64 — deterministic test bytes without the `rand` shim.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn sliced_matches_bytewise_on_random_data_and_splits() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..400 {
            let len = (next(&mut s) % 4200) as usize;
            let data: Vec<u8> = (0..len).map(|_| next(&mut s) as u8).collect();
            let seed = next(&mut s) as u32;
            assert_eq!(crc32_update(seed, &data), crc32_bytewise(seed, &data), "len {len}");
            assert_eq!(crc32(&data), crc32_bytewise(0, &data), "len {len}");
            let split = if len == 0 { 0 } else { (next(&mut s) as usize) % (len + 1) };
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), crc32_bytewise(0, &data), "split {split}/{len}");
        }
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn update_is_concatenation() {
        let whole = crc32(b"treesls-nvm");
        let split = crc32_update(crc32(b"treesls"), b"-nvm");
        assert_eq!(whole, split);
    }

    #[test]
    fn single_bit_flips_change_the_crc() {
        let base = vec![0xA5u8; 256];
        let c0 = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut mutated = base.clone();
                mutated[byte] ^= 1 << bit;
                assert_ne!(crc32(&mutated), c0, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
