//! The benchmark's own request generator: a seeded arrival schedule, key
//! choosers and the self-describing value codec the output oracle reads.
//!
//! Nothing here depends on the program under test, so changes to the
//! program's own load generators or histograms cannot move the numbers.

/// SplitMix64 finalizer: a pure hash, so `op(i)` is a function of
/// `(seed, i)` alone and a run can be replayed exactly.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A hash mapped to `[0, 1)` with 53 bits of precision.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Open-loop arrival schedule: arrival `i` is due at `i · period + j_i`,
/// with `j_i` drawn uniformly from `[0, period)`. Each arrival lives in
/// its own slot, so the offered rate is exact for every seed and bursts
/// are bounded to two arrivals per period.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    period_ns: u64,
    seed: u64,
}

impl Schedule {
    /// The schedule for `rate` arrivals per second.
    pub fn new(rate: u64, seed: u64) -> Schedule {
        Schedule {
            period_ns: 1_000_000_000 / rate.max(1),
            seed: mix(seed ^ 0xA5A5_0001),
        }
    }

    /// Nanoseconds between slots.
    pub fn period_ns(&self) -> u64 {
        self.period_ns
    }

    /// Due time of arrival `i`, in nanoseconds from the window start.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.period_ns + mix(self.seed ^ i) % self.period_ns.max(1)
    }
}

/// Zipfian rank sampler (Gray et al., as in YCSB) over `n` items with
/// skew `theta`; ranks are scrambled by an odd multiplier so hot keys
/// spread across the key space instead of clustering in one leaf.
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

impl Zipf {
    /// A sampler over `n ≥ 2` items.
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zeta_n = zeta(n);
        let zeta_2 = zeta(2);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zeta_n,
            eta,
        }
    }

    /// The key for hash `h`.
    pub fn sample(&self, h: u64) -> u64 {
        let u = unit(h);
        let uz = u * self.zeta_n;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        rank.min(self.n - 1).wrapping_mul(0x9E37_79B1) % self.n
    }
}

/// How a workload picks keys.
#[derive(Debug, Clone, Copy)]
pub enum KeyDist {
    /// Uniform over `0..n`.
    Uniform(u64),
    /// Zipfian over `0..n`.
    Zipf(Zipf),
}

impl KeyDist {
    /// Key count.
    pub fn keys(&self) -> u64 {
        match self {
            KeyDist::Uniform(n) => *n,
            KeyDist::Zipf(z) => z.n,
        }
    }

    fn sample(&self, h: u64) -> u64 {
        match self {
            KeyDist::Uniform(n) => h % n,
            KeyDist::Zipf(z) => z.sample(h),
        }
    }
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// GET / auto-commit read.
    Read,
    /// SET / auto-commit update.
    Write,
}

/// One planned operation. `seq` is the write sequence the value carries
/// (unique across the run and increasing in send order); reads carry 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Read or write.
    pub kind: Kind,
    /// Key id.
    pub key: u64,
    /// Writer sequence encoded into the value.
    pub seq: u64,
}

/// Write sequences of the bulk load (`key + 1`), the measured window
/// (`WINDOW_SEQ + i`) and crash cycle `c` (`cycle_seq(c) + j`) never
/// overlap and increase in send order.
pub const WINDOW_SEQ: u64 = 1 << 40;

/// First write sequence of crash cycle `c`.
pub fn cycle_seq(c: u64) -> u64 {
    (2 + c) << 40
}

/// Deterministic operation plan of one window.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    seed: u64,
    /// Writes per mille.
    write_permille: u64,
    /// Key chooser.
    keys: KeyDist,
}

impl Plan {
    /// A plan for `seed`.
    pub fn new(seed: u64, write_permille: u64, keys: KeyDist) -> Plan {
        Plan {
            seed: mix(seed ^ 0x0B5E_ED00),
            write_permille,
            keys,
        }
    }

    /// Operation `i` of the window.
    pub fn op(&self, i: u64) -> Op {
        let h = mix(self.seed ^ i.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let key = self.keys.sample(mix(h));
        if h % 1000 < self.write_permille {
            Op {
                kind: Kind::Write,
                key,
                seq: WINDOW_SEQ + i,
            }
        } else {
            Op {
                kind: Kind::Read,
                key,
                seq: 0,
            }
        }
    }
}

/// Encodes a `len`-byte value (`len ≥ 16`) naming its key and writer
/// sequence, padded with a filler derived from both, so a reader can tell
/// a value that belongs to another key, a torn value and a stale one.
pub fn encode_value(key: u64, seq: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    let f = mix(key.rotate_left(32) ^ seq);
    v.extend((16..len).map(|j| (f >> ((j % 8) * 8)) as u8 ^ j as u8));
    v
}

/// Decodes a value written by [`encode_value`]: `(key, seq)` when the
/// length and filler check out.
pub fn decode_value(v: &[u8], len: usize) -> Option<(u64, u64)> {
    if v.len() != len || len < 16 {
        return None;
    }
    let key = u64::from_le_bytes(v[..8].try_into().ok()?);
    let seq = u64::from_le_bytes(v[8..16].try_into().ok()?);
    (encode_value(key, seq, len) == v).then_some((key, seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_monotone_and_seeded() {
        let s = Schedule::new(8000, 7);
        let due: Vec<u64> = (0..1000).map(|i| s.due_ns(i)).collect();
        assert!(due.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            due,
            (0..1000)
                .map(|i| Schedule::new(8000, 7).due_ns(i))
                .collect::<Vec<_>>()
        );
        assert_ne!(
            due,
            (0..1000)
                .map(|i| Schedule::new(8000, 8).due_ns(i))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1024, 0.99);
        let mut counts = vec![0u32; 1024];
        for i in 0..100_000u64 {
            counts[z.sample(mix(i)) as usize] += 1;
        }
        counts.sort_unstable();
        let top: u32 = counts.iter().rev().take(10).sum();
        assert!(top > 20_000, "top-10 keys drew only {top} of 100000");
    }

    #[test]
    fn values_round_trip_and_reject_damage() {
        let v = encode_value(42, WINDOW_SEQ + 9, 64);
        assert_eq!(decode_value(&v, 64), Some((42, WINDOW_SEQ + 9)));
        let mut torn = v.clone();
        torn[40] ^= 1;
        assert_eq!(decode_value(&torn, 64), None);
        assert_eq!(decode_value(&v[..32], 64), None);
    }

    #[test]
    fn plan_mixes_reads_and_writes() {
        let p = Plan::new(3, 50, KeyDist::Uniform(10_000));
        let writes = (0..20_000).filter(|&i| p.op(i).kind == Kind::Write).count();
        assert!((800..1200).contains(&writes), "{writes} writes in 20000");
    }
}
