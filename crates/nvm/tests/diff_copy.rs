//! Chunk-diff page copies: the destination always ends equal to the
//! source, the bytes stored are exactly the differing 256 B chunks, and
//! every copy call still counts as one page copy.

use std::sync::Arc;

use proptest::prelude::*;
use treesls_nvm::latency::CHUNK;
use treesls_nvm::{crc32, DramPool, FrameId, LatencyModel, NvmDevice, PAGE_SIZE};

/// xorshift64 stream for page contents.
fn fill(seed: u64, out: &mut [u8]) {
    let mut s = seed | 1;
    for b in out {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *b = s as u8;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn diff_copy_matches_source_and_stores_exactly_the_differing_chunks(
        src_seed in any::<u64>(),
        dst_seed in any::<u64>(),
        fresh_dst in any::<bool>(),
        edits in proptest::collection::vec((0usize..PAGE_SIZE, any::<u8>()), 0..40),
        from_dram in any::<bool>(),
    ) {
        let dev = NvmDevice::new(2, 1024, Arc::new(LatencyModel::disabled()));
        let dram = DramPool::new(1);
        let mut src = vec![0u8; PAGE_SIZE];
        fill(src_seed, &mut src);
        // The destination is either unrelated bytes or the source with a
        // few edits (the common case: last round's image of the page).
        let mut dst = src.clone();
        if fresh_dst {
            fill(dst_seed, &mut dst);
        }
        for &(off, v) in &edits {
            dst[off] = v;
        }
        let differing = src
            .chunks_exact(CHUNK)
            .zip(dst.chunks_exact(CHUNK))
            .filter(|(a, b)| a != b)
            .count() as u64;
        dev.write(FrameId(1), 0, &dst);
        let before = dev.stats().snapshot();
        let crc = if from_dram {
            let page = dram.alloc().expect("one dram page");
            dram.write(page, 0, &src);
            dev.copy_from_dram(&dram, page, FrameId(1))
        } else {
            dev.write(FrameId(0), 0, &src);
            let after_src = dev.stats().snapshot();
            let crc = dev.copy_frame(FrameId(0), FrameId(1));
            let d = dev.stats().snapshot().since(&after_src);
            prop_assert_eq!(d.bytes_written, CHUNK as u64 * differing);
            crc
        };
        let d = dev.stats().snapshot().since(&before);
        let mut out = [0u8; PAGE_SIZE];
        dev.read_page(FrameId(1), &mut out);
        prop_assert!(out[..] == src[..], "destination differs from source");
        prop_assert_eq!(crc, crc32(&src));
        prop_assert_eq!(d.page_copies, 1);
        prop_assert_eq!(d.chunks_stored, differing);
        prop_assert_eq!(d.chunks_skipped, (PAGE_SIZE / CHUNK) as u64 - differing);
        if from_dram {
            prop_assert_eq!(d.bytes_written, CHUNK as u64 * differing);
        }
    }
}
