//! Host-side plumbing: the calibration spin, peak RSS, the environment
//! record, and the small seeded generator probe inputs are drawn from.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Times a fixed integer spin, in milliseconds. The work never changes, so
/// a move in this number is the machine, not the program.
pub fn calib_spin_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..1_000_000 {
        x = black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// What a result was measured on: `(key, value)` pairs for the result file.
pub fn environment() -> Vec<(&'static str, String)> {
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or_else(|_| "unknown".to_owned(), |n| n.to_string()),
        ),
        (
            "rkvc_threads",
            std::env::var("RKVC_THREADS").unwrap_or_else(|_| "unset".to_owned()),
        ),
        ("rustc", command_line("rustc", &["-V"])),
        ("commit", command_line("git", &["rev-parse", "HEAD"])),
    ]
}

/// SplitMix64: seeded input values for the layer probes.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }

    /// `n` values uniform in `[-1, 1)`.
    pub fn vec_f32(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.next_f32()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_seeded_and_in_range() {
        let a = SplitMix64(7).vec_f32(1000);
        assert_eq!(a, SplitMix64(7).vec_f32(1000));
        assert_ne!(a, SplitMix64(8).vec_f32(1000));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
