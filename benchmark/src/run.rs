//! One run of one workload in this process: set-up, timed passes, output
//! checks, and either the end-to-end metrics (untraced) or the per-layer
//! table and a Chrome trace (traced).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::digest::{golden_path, parse_golden, render_golden, Fnv1a, UnitDigest};
use crate::harness::peak_rss_mb;
use crate::metrics::{end_to_end, Metric};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Descriptor, Workload};
use crate::{layers, probes};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Spans per probe timing in a traced run.
const PROBE_REPS: usize = 5;

/// What to run.
pub struct Options {
    /// The workload.
    pub workload: &'static Descriptor,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Host seconds of timed passes (untraced runs).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke mode: one set-up, one pass over the workload's check units.
    pub check: bool,
    /// Rewrite the golden digests from this run instead of checking them.
    pub bless: bool,
}

/// What a run found.
pub struct Outcome {
    /// Every digest matched and every invariant held.
    pub correct: bool,
    /// Operations attempted in timed passes.
    pub attempted: u64,
    /// Operations whose unit panicked or produced a wrong digest.
    pub failed: u64,
    /// Timed passes made.
    pub passes: usize,
    /// The run's metrics: end-to-end (untraced) or per-layer (traced).
    pub metrics: Vec<Metric>,
    /// One digest over all unit digests of a pass.
    pub digest: u64,
    /// Where the digests were checked against.
    pub checked_against: String,
    /// What went wrong, one line each.
    pub problems: Vec<String>,
}

/// A timed interval on the tracer's clock, nanoseconds.
type Interval = (u64, u64);

/// One unit's run within a pass.
struct UnitRun {
    /// Operations it performed (1 if it panicked before saying).
    ops: u64,
    /// Digest of its outputs; `None` if it panicked.
    digest: Option<u64>,
    /// When it ran.
    interval: Interval,
}

struct Pass {
    units: Vec<UnitRun>,
    /// Work done by the units that did not panic.
    work: u64,
}

impl Pass {
    fn intervals(&self) -> impl Iterator<Item = Interval> + '_ {
        self.units.iter().map(|u| u.interval)
    }
}

/// Calibrated seconds of a set of intervals. Summing units rather than
/// timing the whole pass leaves the calibration spins between them out.
fn calibrated_s(tr: &Tracer, intervals: impl Iterator<Item = Interval>) -> f64 {
    intervals.map(|(a, b)| tr.calibrated_ns(a, b)).sum::<f64>() / 1e9
}

/// Runs the given units once, catching a panic per unit.
fn run_pass(w: &mut dyn Workload, units: &[usize], tr: &mut Tracer, pass_id: u64) -> Pass {
    let root = tr.begin("pass", "", pass_id, 1);
    let mut work = 0;
    let units = units
        .iter()
        .map(|&u| {
            tr.calibrate(false);
            let start = tr.now_ns();
            let result = catch_unwind(AssertUnwindSafe(|| w.run_unit(u, tr)));
            let interval = (start, tr.now_ns());
            match result {
                Ok(r) => {
                    work += r.work;
                    UnitRun {
                        ops: r.ops,
                        digest: Some(r.digest),
                        interval,
                    }
                }
                Err(_) => UnitRun {
                    ops: 1,
                    digest: None,
                    interval,
                },
            }
        })
        .collect();
    tr.end(root);
    Pass { units, work }
}

/// Builds the workload and, if asked, runs the untimed warm-up pass.
/// Returns the intervals set-up spent working.
fn set_up(
    desc: &Descriptor,
    seed: u64,
    warm_up: bool,
    tr: &mut Tracer,
) -> (Box<dyn Workload>, Vec<Interval>) {
    tr.calibrate(true);
    let start = tr.now_ns();
    let mut w = (desc.setup)(seed);
    let mut intervals = vec![(start, tr.now_ns())];
    if warm_up {
        let all: Vec<usize> = (0..w.units().len()).collect();
        intervals.extend(run_pass(w.as_mut(), &all, tr, 0).intervals());
    }
    tr.calibrate(true);
    (w, intervals)
}

/// Checks every pass against the golden digests for this seed, or, for a
/// seed without goldens, against the first pass.
struct Verifier {
    labels: Vec<String>,
    expected: Vec<Option<u64>>,
    checked_against: String,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    first: Vec<UnitDigest>,
}

impl Verifier {
    /// `require_golden`: a seed without a golden file is a problem, not a
    /// fall-back to the first pass.
    fn new(
        workload: &str,
        seed: u64,
        labels: Vec<String>,
        bless: bool,
        require_golden: bool,
    ) -> Self {
        let path = golden_path(workload, seed);
        let mut problems = Vec::new();
        let mut expected = vec![None; labels.len()];
        let mut checked_against = "first pass (no golden for this seed)".to_owned();
        match std::fs::read_to_string(&path) {
            _ if bless => {}
            Ok(text) => {
                checked_against = path.display().to_string();
                match parse_golden(&text) {
                    Ok(golden) => {
                        for (label, slot) in labels.iter().zip(&mut expected) {
                            *slot = golden.iter().find(|(l, _)| l == label).map(|(_, d)| *d);
                            if slot.is_none() {
                                problems.push(format!(
                                    "{}: no golden digest for unit {label}",
                                    path.display()
                                ));
                            }
                        }
                    }
                    Err(e) => problems.push(e),
                }
            }
            Err(e) if require_golden => problems.push(format!("{}: {e}", path.display())),
            Err(_) => {}
        }
        Verifier {
            labels,
            expected,
            checked_against,
            attempted: 0,
            failed: 0,
            problems,
            first: Vec::new(),
        }
    }

    fn check(&mut self, units: &[usize], pass: &Pass) {
        let first_pass = self.first.is_empty();
        for (&u, &UnitRun { ops, digest, .. }) in units.iter().zip(&pass.units) {
            self.attempted += ops;
            let label = &self.labels[u];
            match (digest, self.expected[u]) {
                (None, _) => {
                    self.failed += ops;
                    self.problems.push(format!("unit {label} panicked"));
                }
                (Some(d), Some(want)) if d != want => {
                    self.failed += ops;
                    self.problems.push(format!(
                        "unit {label}: digest {d:016x}, expected {want:016x}"
                    ));
                }
                (Some(d), None) => self.expected[u] = Some(d),
                (Some(_), Some(_)) => {}
            }
            if first_pass {
                self.first.push((label.clone(), digest.unwrap_or(0)));
            }
        }
    }

    fn combined_digest(&self) -> u64 {
        let mut d = Fnv1a::default();
        for (_, unit) in &self.first {
            d.u64(*unit);
        }
        d.finish()
    }
}

fn end_to_end_metric(name: &str, value: f64, note: String) -> Metric {
    let decl = end_to_end()
        .into_iter()
        .find(|d| d.name == name)
        .expect("only declared end-to-end metrics are measured");
    Metric {
        name: decl.name,
        value,
        unit: decl.unit,
        note,
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a message when the harness itself cannot do its job (a golden
/// file cannot be written, a declared metric was not measured, a metric is
/// not a finite number). Wrong outputs are not errors: they are reported
/// in the [`Outcome`].
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let desc = opts.workload;
    let mut tr = Tracer::off();

    let setups = if opts.trace || opts.check { 1 } else { SETUPS };
    let mut setup_intervals = Vec::new();
    let mut workload = None;
    for _ in 0..setups {
        drop(workload.take());
        let (w, intervals) = set_up(desc, opts.seed, desc.warm_up && !opts.check, &mut tr);
        setup_intervals.push(intervals);
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");

    let units: Vec<usize> = if opts.check {
        w.check_units()
    } else {
        (0..w.units().len()).collect()
    };
    let mut verifier = Verifier::new(desc.name, opts.seed, w.units(), opts.bless, opts.check);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut pass_id = 0;
    let mut timed_pass = |tr: &mut Tracer, into: &mut Vec<Pass>| {
        pass_id += 1;
        let pass = run_pass(w.as_mut(), &units, tr, pass_id);
        verifier.check(&units, &pass);
        into.push(pass);
    };
    if opts.trace {
        let passes = if opts.check { 1 } else { desc.traced_passes };
        for _ in 0..passes {
            tr.set_enabled(false);
            timed_pass(&mut tr, &mut untraced);
            tr.set_enabled(true);
            timed_pass(&mut tr, &mut traced);
        }
    } else {
        let start = Instant::now();
        loop {
            timed_pass(&mut tr, &mut untraced);
            if opts.check || start.elapsed().as_secs_f64() >= opts.seconds {
                break;
            }
        }
    }
    tr.calibrate(true);
    let pass_s = |passes: &[Pass]| -> Vec<f64> {
        passes
            .iter()
            .map(|p| calibrated_s(&tr, p.intervals()))
            .collect()
    };
    let untraced_s = pass_s(&untraced);

    let metrics = if opts.trace {
        let overhead = median(&pass_s(&traced)) / median(&untraced_s);
        tr.set_enabled(true);
        let reps = if opts.check { 1 } else { PROBE_REPS };
        let mut facts = probes::run(&mut tr, opts.seed, desc.probe_ctx, desc.covers, reps);
        facts.extend(w.facts());
        let path = format!("benchmark/out/trace-{}.json", desc.name);
        std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| tr.write_chrome_trace(f))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        layers::table(&tr, &facts, overhead)?
    } else {
        let work = untraced[0].work;
        let pass = median(&untraced_s);
        let setup_s: Vec<f64> = setup_intervals
            .iter()
            .map(|i| calibrated_s(&tr, i.iter().copied()))
            .collect();
        let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        vec![
            end_to_end_metric(
                "work_per_s",
                work as f64 / pass,
                format!(
                    "{work} {}s per pass, median of {} passes of {pass:.4} calibrated s; \
                     spin median {:.4} ms",
                    desc.work,
                    untraced_s.len(),
                    median(&tr.calib_ms())
                ),
            ),
            end_to_end_metric("peak_rss_mb", rss, "VmHWM at exit".to_owned()),
            end_to_end_metric(
                "setup_s",
                median(&setup_s),
                format!("median of {} set-ups, calibrated s", setup_s.len()),
            ),
        ]
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }

    if opts.bless {
        if opts.check || verifier.failed > 0 {
            return Err("--bless needs a full run in which no unit panics".to_owned());
        }
        let path = golden_path(desc.name, opts.seed);
        std::fs::write(&path, render_golden(&verifier.first))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        verifier.checked_against = format!("{} (blessed)", path.display());
    }

    Ok(Outcome {
        correct: verifier.problems.is_empty() && verifier.failed == 0,
        attempted: verifier.attempted,
        failed: verifier.failed,
        passes: untraced.len() + traced.len(),
        metrics,
        digest: verifier.combined_digest(),
        checked_against: verifier.checked_against,
        problems: verifier.problems,
    })
}

/// The one-line JSON result the benchmark contract asks for.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Prints every metric by name with its unit, then the result line.
pub fn print_report(opts: &Options, o: &Outcome) {
    println!(
        "workload {} seed {:#x} trace {} passes {} attempted {} succeeded {} failed {}",
        opts.workload.name,
        opts.seed,
        u8::from(opts.trace),
        o.passes,
        o.attempted,
        o.attempted - o.failed,
        o.failed
    );
    println!(
        "digest {:016x} checked against {}",
        o.digest, o.checked_against
    );
    for p in &o.problems {
        println!("problem {p}");
    }
    for m in &o.metrics {
        println!("metric {} {} {}  ({})", m.name, m.value, m.unit, m.note);
    }
    println!("{}", result_line(o));
}
