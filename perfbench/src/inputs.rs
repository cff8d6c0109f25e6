//! Seeded request generation, the benchmark's own protobuf encoder, and
//! the response digest computed from the generator's values.
//!
//! Nothing here calls the program: the wire bytes and the expected
//! digests are derived from plain values, so a response is checked
//! against an independent computation and never through the program's
//! decoder.

/// Procedure ids of the benchmark service (`bench.Bench`).
pub const PROC_SMALL: u16 = 1;
/// `Ints(bench.IntArray)`.
pub const PROC_INTS: u16 = 2;
/// `Chars(bench.CharArray)`.
pub const PROC_CHARS: u16 = 3;

/// splitmix64: small, seedable, identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x005E_ED0F_BE4C_4D41)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The values a request was generated from.
pub enum Body {
    Small {
        a: u32,
        b: u32,
        c: u64,
        d: f32,
        e: bool,
    },
    Ints(Vec<u32>),
    Chars(Vec<u8>),
}

/// One generated request: its procedure, its wire bytes, and the values
/// behind them.
pub struct Msg {
    pub proc_id: u16,
    pub wire: Vec<u8>,
    pub body: Body,
}

impl Msg {
    /// `bench.Small`. Every field must be non-zero (proto3 omits zeros).
    pub fn small(a: u32, b: u32, c: u64, d: f32) -> Self {
        let mut wire = Vec::with_capacity(16);
        wire.push(0x08);
        varint(&mut wire, a as u64);
        wire.push(0x10);
        varint(&mut wire, b as u64);
        wire.push(0x18);
        varint(&mut wire, c);
        wire.push(0x25);
        wire.extend_from_slice(&d.to_le_bytes());
        wire.extend_from_slice(&[0x28, 1]);
        Self {
            proc_id: PROC_SMALL,
            wire,
            body: Body::Small {
                a,
                b,
                c,
                d,
                e: true,
            },
        }
    }

    /// `bench.IntArray`, packed.
    pub fn ints(values: Vec<u32>) -> Self {
        let mut packed = Vec::with_capacity(values.len() * 2);
        for &v in &values {
            varint(&mut packed, v as u64);
        }
        let mut wire = vec![0x0A];
        varint(&mut wire, packed.len() as u64);
        wire.extend_from_slice(&packed);
        Self {
            proc_id: PROC_INTS,
            wire,
            body: Body::Ints(values),
        }
    }

    /// `bench.CharArray` (printable ASCII).
    pub fn chars(text: Vec<u8>) -> Self {
        let mut wire = vec![0x0A];
        varint(&mut wire, text.len() as u64);
        wire.extend_from_slice(&text);
        Self {
            proc_id: PROC_CHARS,
            wire,
            body: Body::Chars(text),
        }
    }

    /// The digest a correct host answers with when `tenant` sends this
    /// request.
    pub fn expected(&self, tenant: &str) -> [u8; 8] {
        let mut d = Digest::new(self.proc_id);
        match &self.body {
            Body::Small { a, b, c, d: f, e } => {
                d.word(*a as u64);
                d.word(*b as u64);
                d.word(*c);
                d.word(f.to_bits() as u64);
                d.word(*e as u64);
            }
            Body::Ints(v) => d.u32s(v),
            Body::Chars(s) => d.bytes(s),
        }
        d.finish(tenant)
    }
}

fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A word-at-a-time digest: the host computes it over the native object
/// it was handed, the caller over the values it generated.
pub struct Digest(u64);

impl Digest {
    pub fn new(proc_id: u16) -> Self {
        Self(0xCBF2_9CE4_8422_2325 ^ proc_id as u64)
    }

    pub fn word(&mut self, w: u64) {
        let h = (self.0 ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 29);
    }

    /// Length, then the bytes as little-endian words (tail zero-padded).
    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// Length, then the values two to a word.
    pub fn u32s(&mut self, v: &[u32]) {
        self.word(v.len() as u64);
        for pair in v.chunks(2) {
            let hi = pair.get(1).copied().unwrap_or(0) as u64;
            self.word(pair[0] as u64 | hi << 32);
        }
    }

    /// Mixes in the caller's tenant and returns the response bytes.
    pub fn finish(mut self, tenant: &str) -> [u8; 8] {
        self.bytes(tenant.as_bytes());
        self.0.to_le_bytes()
    }
}

/// A `bench.Small` of exactly 15 wire bytes: `a` and `b` are two-byte
/// varints, `c` a one-byte varint in `1..100`. `a`'s low bit is `tenant`,
/// so the two tenants' populations never share a key.
pub fn small(rng: &mut Rng, tenant: u32) -> Msg {
    let a = 128 + 2 * rng.below(8000) as u32 + tenant;
    let b = 128 + rng.below(16_000) as u32;
    let c = 1 + rng.below(99);
    let d = (1 + rng.below(1 << 20)) as f32 / 64.0;
    Msg::small(a, b, c, d)
}

/// The fixed cross-tenant probe keys: `c` in `100..` keeps them apart
/// from every seeded `small` key, and they do not depend on the seed.
pub fn probe(i: u32) -> Msg {
    Msg::small(300 + 2 * i, 200, 100 + i as u64, 1.5)
}

/// One element of the paper's skewed integer distribution: the varint
/// length L is drawn first (1..5 bytes with P = 45/30/13/7/5%), then a
/// uniform value of exactly that length — about 2 wire bytes per element.
pub fn skewed_u32(rng: &mut Rng) -> u32 {
    let (lo, hi): (u64, u64) = match rng.below(100) {
        0..=44 => (0, 1 << 7),
        45..=74 => (1 << 7, 1 << 14),
        75..=87 => (1 << 14, 1 << 21),
        88..=94 => (1 << 21, 1 << 28),
        _ => (1 << 28, 1 << 32),
    };
    (lo + rng.below(hi - lo)) as u32
}

/// `n` skewed integers; the first element is `tenant`, which keeps the
/// two tenants' populations disjoint.
pub fn int_array(rng: &mut Rng, n: usize, tenant: u32) -> Msg {
    let mut v = Vec::with_capacity(n);
    v.push(tenant);
    while v.len() < n {
        v.push(skewed_u32(rng));
    }
    Msg::ints(v)
}

/// `n` printable ASCII characters.
pub fn char_array(rng: &mut Rng, n: usize) -> Msg {
    Msg::chars((0..n).map(|_| b' ' + rng.below(95) as u8).collect())
}

/// Shares (percent) of the realistic mix of
/// `pbo_protowire::workloads::gen_realistic`: Small, short strings
/// (1..=490 chars), int arrays (300..800 elements), long strings
/// (2000..8000 chars).
const MIX_SHARES: [usize; 4] = [60, 30, 8, 2];
/// Seed of the population's shape; not the run's seed.
const MIX_SHAPE_SEED: u64 = 0x5A4E_0001;

/// A population of `n` requests in the realistic mix, in popularity-rank
/// order. Which class and size sits at each rank is fixed (every class
/// takes the ranks where it lags its share most), so the mix's traffic
/// does not swing with the seed; `rng` draws the values.
pub fn realistic_population(rng: &mut Rng, tenant: u32, n: usize) -> Vec<Msg> {
    let mut shape = Rng::new(MIX_SHAPE_SEED);
    let mut taken = [0usize; 4];
    (0..n)
        .map(|rank| {
            let lag = |c: usize| ((rank + 1) * MIX_SHARES[c]) as i64 - 100 * taken[c] as i64;
            let class = (1..4).fold(0, |best, c| if lag(c) > lag(best) { c } else { best });
            taken[class] += 1;
            match class {
                0 => small(rng, tenant),
                1 => char_array(rng, 1 + shape.below(490) as usize),
                2 => int_array(rng, 300 + shape.below(500) as usize, tenant),
                _ => char_array(rng, 2_000 + shape.below(6_000) as usize),
            }
        })
        .collect()
}

/// A call schedule over ranks `0..n` with zipf popularity (exponent
/// `s`): each cycle of `len` calls holds every rank exactly its
/// largest-remainder share of `len` times, in an order `rng` shuffles
/// anew each cycle. The mix of a cycle is fixed; only the order is drawn.
pub struct ZipfSchedule {
    cycle: Vec<usize>,
    next: usize,
}

impl ZipfSchedule {
    pub fn new(n: usize, s: f64, len: usize) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let quota: Vec<f64> = weights.iter().map(|w| w / total * len as f64).collect();
        let mut count: Vec<usize> = quota.iter().map(|q| q.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..n).collect();
        by_remainder.sort_by(|&a, &b| {
            (quota[b] - quota[b].floor()).total_cmp(&(quota[a] - quota[a].floor()))
        });
        let short = len - count.iter().sum::<usize>();
        for &k in &by_remainder[..short] {
            count[k] += 1;
        }
        let cycle = (0..n)
            .flat_map(|k| std::iter::repeat_n(k, count[k]))
            .collect();
        Self { cycle, next: len }
    }

    pub fn next(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.cycle.len() {
            for i in (1..self.cycle.len()).rev() {
                self.cycle.swap(i, rng.below(i as u64 + 1) as usize);
            }
            self.next = 0;
        }
        self.next += 1;
        self.cycle[self.next - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_is_fifteen_bytes_for_every_seed() {
        for seed in 0..200 {
            let mut rng = Rng::new(seed);
            assert_eq!(small(&mut rng, (seed % 2) as u32).wire.len(), 15);
        }
        assert_eq!(probe(7).wire.len(), 15);
    }

    #[test]
    fn population_shape_is_fixed_and_keeps_the_shares() {
        let classes = |seed| {
            realistic_population(&mut Rng::new(seed), 0, 100)
                .iter()
                .map(|m| (m.proc_id, m.wire.len() > 1900))
                .collect::<Vec<_>>()
        };
        let a = classes(1);
        assert_eq!(a, classes(2));
        let count = |p, long| a.iter().filter(|&&c| c == (p, long)).count();
        assert_eq!(count(PROC_SMALL, false), 60);
        assert_eq!(count(PROC_CHARS, false), 30);
        assert_eq!(count(PROC_INTS, false), 8);
        assert_eq!(count(PROC_CHARS, true), 2);
    }

    #[test]
    fn zipf_cycle_has_fixed_counts() {
        let mut z = ZipfSchedule::new(128, 0.99, 1200);
        let mut rng = Rng::new(9);
        let mut seen = vec![0usize; 128];
        for _ in 0..2400 {
            seen[z.next(&mut rng)] += 1;
        }
        assert_eq!(seen.iter().sum::<usize>(), 2400);
        assert!(seen[0] > seen[1] && seen[1] > seen[10] && seen[127] >= 2);
        assert_eq!(seen.iter().filter(|&&c| c % 2 == 1).count(), 0);
    }

    #[test]
    fn digest_depends_on_tenant_and_values() {
        let m = Msg::ints(vec![1, 2, 3]);
        assert_ne!(m.expected("t0"), m.expected("t1"));
        assert_ne!(m.expected("t0"), Msg::ints(vec![1, 2, 4]).expected("t0"));
        assert_eq!(m.expected("t0"), Msg::ints(vec![1, 2, 3]).expected("t0"));
    }
}
