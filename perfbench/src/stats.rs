//! Small statistics and digest helpers.

/// Median of `v` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0 < q <= 1) of `v`; 0 for an empty slice.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// "N samples, M beyond" — printed next to a percentile.
pub fn sample_note(n: usize, q: f64) -> String {
    let beyond = n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1)).min(n);
    format!("{n} samples, {beyond} beyond")
}

/// 64-bit FNV-1a, for digests of deterministic outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a table of rows: cells separated by `,`, rows by `\n`.
pub fn digest_rows(rows: &[Vec<String>]) -> u64 {
    let mut h = Fnv::new();
    for row in rows {
        h.write(row.join(",").as_bytes());
        h.write(b"\n");
    }
    h.finish()
}
