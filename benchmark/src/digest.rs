//! FNV-1a output digests and the golden files they are checked against.

use std::path::{Path, PathBuf};

/// 64-bit FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Absorbs raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs an integer as eight little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Absorbs a float's exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One golden line: a unit's label and the digest of its outputs.
pub type UnitDigest = (String, u64);

/// `benchmark/golden/<workload>-<seed>.txt`, relative to the repo root the
/// benchmark runs from.
pub fn golden_path(workload: &str, seed: u64) -> PathBuf {
    Path::new("benchmark/golden").join(format!("{workload}-{seed:#x}.txt"))
}

/// Renders digests as `label digest` lines.
pub fn render_golden(units: &[UnitDigest]) -> String {
    units
        .iter()
        .map(|(label, d)| format!("{label} {d:016x}\n"))
        .collect()
}

/// Parses `label digest` lines.
///
/// # Errors
///
/// Returns the offending line when one is malformed.
pub fn parse_golden(text: &str) -> Result<Vec<UnitDigest>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let (label, hex) = line
                .trim()
                .rsplit_once(' ')
                .ok_or_else(|| format!("golden line without a digest: {line:?}"))?;
            let d =
                u64::from_str_radix(hex, 16).map_err(|e| format!("golden line {line:?}: {e}"))?;
            Ok((label.to_owned(), d))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        // Test vectors from the FNV reference distribution.
        let digest = |s: &str| {
            let mut h = Fnv1a::default();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn integers_and_floats_are_absorbed_bytewise() {
        let mut a = Fnv1a::default();
        a.u64(1);
        a.f64(-0.0);
        let mut b = Fnv1a::default();
        b.bytes(&[1, 0, 0, 0, 0, 0, 0, 0]);
        b.bytes(&[0, 0, 0, 0, 0, 0, 0, 0x80]);
        assert_eq!(a.finish(), b.finish());
        // -0.0 and 0.0 differ in bits, so they must differ in digest.
        let mut c = Fnv1a::default();
        c.f64(0.0);
        let mut d = Fnv1a::default();
        d.f64(-0.0);
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn golden_round_trips() {
        let units = vec![
            ("0/fp16".to_owned(), 0xdead_beefu64),
            ("ext slo".to_owned(), 7),
        ];
        let text = render_golden(&units);
        assert_eq!(text, "0/fp16 00000000deadbeef\next slo 0000000000000007\n");
        assert_eq!(parse_golden(&text), Ok(units));
        assert!(parse_golden("nodigest\n").is_err());
        assert!(parse_golden("x zz\n").is_err());
        assert_eq!(
            golden_path("gen_long", 0x5EED).to_str(),
            Some("benchmark/golden/gen_long-0x5eed.txt")
        );
    }
}
