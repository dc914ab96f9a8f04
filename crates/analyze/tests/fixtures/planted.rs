// One planted violation per source lint id (D001, D002, D003, D004,
// E001, A001); H001 is manifest-level — see the inline manifests in
// planted_fixture.rs. This file is a test fixture: it is never compiled
// and never scanned by gate 0 (the analyzer only walks src trees).

use std::collections::HashMap;
use std::time::Instant;

pub fn planted() -> u128 {
    let t = Instant::now();
    let m: HashMap<u32, u32> = HashMap::new();
    let mut rng = thread_rng();
    let v = m.get(&0).copied().unwrap();
    // rkvc-allow(FAKE): not a real lint id
    // rkvc-allow(E001): fixture demonstrating a valid standalone suppression
    let w = m.get(&1).copied().expect("covered by the line above");
    let s = std::thread::scope(|_| v + w);
    let b = std::thread::Builder::new().spawn(move || s).is_ok();
    t.elapsed().as_nanos() + u128::from(s) + u128::from(b)
}

// Planted hits for the semantic lints (U001/U002/D005/D006), the D004
// import form, and the stacked-suppression chain at the bottom.
use std::{thread as planted_thread};

pub unsafe fn planted_unsafe(x: &[u8]) -> u32 {
    static mut PLANTED_COUNT: u32 = 0;
    let p = x.as_ptr() as *const u32;
    let v = unsafe { *p };
    let o = std::sync::atomic::Ordering::Relaxed;
    let t: u32 = unsafe { std::mem::transmute(1.0f32) };
    v + t + o as u32
}

pub fn planted_sums(values: &[f32]) -> f32 {
    let a = values.iter().sum::<f32>();
    let b = values.iter().fold(0.5f32, |acc, v| acc + v);
    // rkvc-allow(D002): stacked directive one — fixture for chained covers
    // rkvc-allow(E001): stacked directive two — chains past the directive above
    let c = std::collections::HashMap::<u32, u32>::new().get(&0).copied().unwrap();
    a + b + c as f32
}

// A CPU-feature-gated kernel entered outside the unsafe allowlist: the
// `#[target_feature]` fn itself is safe to declare, but reaching it from
// ordinary code takes an `unsafe` call, which U001 confines.
#[target_feature(enable = "avx2")]
fn planted_wide(values: &mut [f32]) {
    values.iter_mut().for_each(|v| *v += 1.0);
}

pub fn planted_dispatch(values: &mut [f32]) {
    if std::arch::is_x86_feature_detected!("avx2") {
        unsafe { planted_wide(values) };
    }
}
