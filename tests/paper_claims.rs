//! The paper's verdicts, read from the committed paper-scale results.
//!
//! `results/<exp>.json` is what `repro --scale paper` writes at HEAD (gate 5
//! of `scripts/check_hermetic.sh` re-runs it and diffs). Each [`Claim`] is
//! one predicate over one such file, parsed back into an
//! `ExperimentResult`, and says whether the paper's statement holds on
//! this substrate or is a documented divergence. EXPERIMENTS.md cites every
//! claim by id, after a ✓ (holds) or a ✗ (diverges); the tests below check
//! the claims against `results/` and the citations against the claims.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use rethink_kv_compression::core::experiments::{experiment_ids, ExperimentResult};
use rethink_kv_compression::core::report::Table;
use rkvc_tensor::json::JsonValue;

/// What a claim's check is expected to return on the committed results.
enum Expect {
    /// The paper's statement holds here.
    Holds,
    /// A documented divergence: what is measured instead, and why.
    Diverges(&'static str),
}
use Expect::{Diverges, Holds};

type Check = Result<(), String>;

/// One paper verdict over one experiment's committed JSON.
struct Claim {
    /// `<exp>/<slug>`, as EXPERIMENTS.md cites it.
    id: &'static str,
    /// The experiment whose `results/<exp>.json` the check reads.
    exp: &'static str,
    /// What the paper claims, and where.
    paper: &'static str,
    /// `Err` carries the measured values, so a failure says what moved.
    check: fn(&ExperimentResult) -> Check,
    expect: Expect,
}

fn claim(
    id: &'static str,
    expect: Expect,
    paper: &'static str,
    check: fn(&ExperimentResult) -> Check,
) -> Claim {
    let exp = id.split_once('/').map_or(id, |(exp, _)| exp);
    Claim {
        id,
        exp,
        paper,
        check,
        expect,
    }
}

/// Prefix of a lookup failure: the result's shape changed, so the claim is
/// reported whatever it expects.
const SHAPE: &str = "shape: ";

/// Returns `Err(format!(..))` from the enclosing check unless `$cond`.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// `Ok(())` if `$cond`, else `Err(format!(..))`: a check's last line.
macro_rules! holds {
    ($cond:expr, $($msg:tt)+) => {{
        ensure!($cond, $($msg)+);
        Ok(())
    }};
}

/// A numeric cell: `"31.9%"` is 31.9, `"1.10x"` is 1.1; `"-"`, `"OOM"` and
/// text are `None`.
fn num(cell: &str) -> Option<f64> {
    cell.trim_end_matches(['%', 'x']).parse().ok()
}

/// Every table whose title contains `title`; at least one.
fn tables<'a>(r: &'a ExperimentResult, title: &str) -> Result<Vec<&'a Table>, String> {
    let found: Vec<&Table> = r
        .tables
        .iter()
        .filter(|t| t.title.contains(title))
        .collect();
    ensure!(!found.is_empty(), "{SHAPE}no table titled {title:?}");
    Ok(found)
}

fn table<'a>(r: &'a ExperimentResult, title: &str) -> Result<&'a Table, String> {
    Ok(tables(r, title)?[0])
}

fn col(t: &Table, header: &str) -> Result<usize, String> {
    let c = t.headers.iter().position(|h| h == header);
    c.ok_or_else(|| format!("{SHAPE}no column {header:?} in {:?}", t.title))
}

/// The row whose first cell, or first two cells joined by a space, is `label`.
fn row<'a>(t: &'a Table, label: &str) -> Result<&'a [String], String> {
    t.rows
        .iter()
        .find(|r| {
            r.first().is_some_and(|c| c == label)
                || r.get(..2).is_some_and(|c| c.join(" ") == label)
        })
        .map(Vec::as_slice)
        .ok_or_else(|| format!("{SHAPE}no row {label:?} in {:?}", t.title))
}

fn text<'a>(t: &'a Table, label: &str, header: &str) -> Result<&'a str, String> {
    let cell = row(t, label)?.get(col(t, header)?);
    cell.map(String::as_str)
        .ok_or_else(|| format!("{SHAPE}row {label:?} has no {header:?} cell"))
}

fn val(t: &Table, label: &str, header: &str) -> Result<f64, String> {
    let cell = text(t, label, header)?;
    num(cell).ok_or_else(|| format!("{SHAPE}{label}/{header} is {cell:?}, not a number"))
}

/// `val` of several `(row, column)` cells.
fn vals(t: &Table, cells: &[(&str, &str)]) -> Result<Vec<f64>, String> {
    cells
        .iter()
        .map(|(label, header)| val(t, label, header))
        .collect()
}

/// A whole column's cells, top to bottom.
fn cells<'a>(t: &'a Table, header: &str) -> Result<Vec<&'a str>, String> {
    let c = col(t, header)?;
    let cell = |r: &'a Vec<String>| {
        r.get(c)
            .map(String::as_str)
            .ok_or_else(|| format!("{SHAPE}short row {r:?}"))
    };
    t.rows.iter().map(cell).collect()
}

/// Each row's label: its first cell.
fn labels(t: &Table) -> Result<Vec<&str>, String> {
    cells(t, t.headers.first().map_or("", String::as_str))
}

/// A whole column, top to bottom.
fn column(t: &Table, header: &str) -> Result<Vec<f64>, String> {
    let n = |c: &str| num(c).ok_or_else(|| format!("{SHAPE}{header} cell {c:?} is not a number"));
    cells(t, header)?.into_iter().map(n).collect()
}

/// The cells of `label`'s row after the label.
fn row_vals(t: &Table, label: &str) -> Result<Vec<f64>, String> {
    let n = |c: &String| num(c).ok_or_else(|| format!("{SHAPE}{label} cell {c:?} is not a number"));
    row(t, label)?.iter().skip(1).map(n).collect()
}

/// The first and last of `v`.
fn ends(v: &[f64]) -> Result<(f64, f64), String> {
    v.first()
        .zip(v.last())
        .map(|(a, b)| (*a, *b))
        .ok_or_else(|| format!("{SHAPE}empty column"))
}

/// `column(t, a) / column(t, b)`, row by row.
fn ratio(t: &Table, a: &str, b: &str) -> Result<Vec<f64>, String> {
    Ok(column(t, a)?
        .iter()
        .zip(column(t, b)?)
        .map(|(x, y)| x / y)
        .collect())
}

fn falls(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[1] < w[0])
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The cost-model suite's column labels (Figs. 1-3, 5, Table 3).
const COMPRESSED: [&str; 4] = ["KIVI-4", "GEAR-4", "H2O-512", "Stream-512"];
/// The TinyLM-scaled suite's column labels (Tables 4-5).
const SCALED: [&str; 4] = ["KIVI-4", "GEAR-4", "H2O-64", "Stream-64"];
/// Table 8's compressed columns.
const TABLE8: [&str; 4] = ["KIVI", "GEAR", "H2O", "Stream"];
const NEGATIVES: &str = "threshold vs #negative samples";

/// Fig. 1 layout (also Figs. 8 and 10): TRL < TRL+FA < LMDeploy in every
/// FP16 decode row.
fn engines_ordered(r: &ExperimentResult) -> Check {
    for t in tables(r, "(a-b) FP16 decode throughput")? {
        let (trl, fa, lmd) = (column(t, "TRL")?, column(t, "TRL+FA")?, column(t, "LMD")?);
        for (i, b) in labels(t)?.into_iter().enumerate() {
            ensure!(
                trl[i] < fa[i] && fa[i] < lmd[i],
                "batch {b}: {} {} {}",
                trl[i],
                fa[i],
                lmd[i]
            );
        }
    }
    Ok(())
}

/// Table 4: both algorithms' semantic scores are within 5 points of FP16's.
fn scores_within_5(r: &ExperimentResult, algos: [&str; 2]) -> Check {
    let v = vals(
        table(r, "Table 4")?,
        &["FP16", algos[0], algos[1]].map(|a| ("Semantic Score", a)),
    )?;
    holds!(
        (v[1] - v[0]).abs() <= 5.0 && (v[2] - v[0]).abs() <= 5.0,
        "FP16, {algos:?}: {v:?}"
    )
}

/// Table 5 layout (also Table 9): each column's skew, its "longer" minus
/// its "shorter" percentage.
fn skews(r: &ExperimentResult, columns: &[&str]) -> Result<Vec<f64>, String> {
    let t = table(r, "response-length shift")?;
    let skew = |c| Ok(val(t, "% D <= -50% (longer)", c)? - val(t, "% D >= 50% (shorter)", c)?);
    columns.iter().map(|c| skew(c)).collect()
}

/// Each of `columns` skews longer by more than either temperature does.
fn skews_past_temperature(r: &ExperimentResult, columns: &[&str]) -> Check {
    let (temp, comp) = (skews(r, &["T=0.9", "T=1.1"])?, skews(r, columns)?);
    holds!(
        min(&comp) > max(&temp),
        "skews {columns:?} {comp:.1?}, temperature {temp:.1?}"
    )
}

/// Fig. 4 layout (also Fig. 15): in each `(low, high)` compression pair
/// the higher ratio has the wider D distribution and more lengthened
/// samples.
fn widens(r: &ExperimentResult, pairs: &[(&str, &str)]) -> Check {
    let t = table(r, "D-distribution")?;
    for (lo, hi) in pairs {
        let (s0, s1) = (val(t, lo, "std D")?, val(t, hi, "std D")?);
        let (l0, l1) = (val(t, lo, "% longer (D<0)")?, val(t, hi, "% longer (D<0)")?);
        ensure!(
            s1 > s0 && l1 > l0,
            "{lo} -> {hi}: std {s0} -> {s1}, longer {l0}% -> {l1}%"
        );
    }
    Ok(())
}

/// Fig. 5 layout (also Fig. 16): every row is a CDF (in [0, 1], never
/// falling across the probes), and every compressed one lies right of
/// FP16's, at or below it at every FP16-quantile probe.
fn cdfs_right_of_fp16(r: &ExperimentResult) -> Check {
    let t = table(r, "E2E latency CDF")?;
    let fp16 = row_vals(t, "FP16")?;
    for algo in labels(t)? {
        let p = row_vals(t, algo)?;
        let cdf = min(&p) >= 0.0 && max(&p) <= 1.0 && p.windows(2).all(|w| w[0] <= w[1]);
        ensure!(
            cdf && p.iter().zip(&fp16).all(|(p, f)| p <= f),
            "{algo}: {p:?}, FP16 {fp16:?}"
        );
    }
    Ok(())
}

/// Fig. 6 layout (also Fig. 17): a combined set never holds more
/// negatives than either member, at every threshold.
fn combining_shrinks_negatives(r: &ExperimentResult) -> Check {
    let t = table(r, NEGATIVES)?;
    for (set, a, b) in [
        ("Quant (C)", "KIVI", "GEAR"),
        ("Sparse (C)", "H2O", "Stream"),
    ] {
        let (c, a, b) = (column(t, set)?, column(t, a)?, column(t, b)?);
        for (i, th) in labels(t)?.into_iter().enumerate() {
            ensure!(
                c[i] <= a[i].min(b[i]),
                "{set} at {th}: {} vs {} / {}",
                c[i],
                a[i],
                b[i]
            );
        }
    }
    Ok(())
}

/// Fig. 7 layout (also Fig. 18): every row with negatives is a share
/// summing to 100 %, context-retrieval tasks hold most of it, and code holds
/// the least, less than QA and synthetic together.
fn retrieval_dominates_code_least(r: &ExperimentResult) -> Check {
    let t = table(r, "negative-sample share by task type")?;
    let retrieval = [
        "single-doc-qa",
        "multi-doc-qa",
        "summarization",
        "synthetic",
    ];
    let qa = ["single-doc-qa", "multi-doc-qa", "synthetic"];
    let mut mined = false;
    for algo in labels(t)? {
        let shares = row_vals(t, algo)?;
        let total: f64 = shares.iter().sum();
        if total == 0.0 {
            continue;
        }
        mined = true;
        let share: f64 = vals(t, &retrieval.map(|task| (algo, task)))?.iter().sum();
        let qa: f64 = vals(t, &qa.map(|task| (algo, task)))?.iter().sum();
        let code = val(t, algo, "code")?;
        ensure!(
            (total - 100.0).abs() < 1.0 && share > 50.0 && code <= min(&shares) && code < qa,
            "{algo}: total {total}%, retrieval {share}%, QA and synthetic {qa}%, code {code}%"
        );
    }
    holds!(mined, "no algorithm mined a negative")
}

/// Table 7 layout (also Table 11): a task group's Baseline score, then
/// each algorithm's.
fn baseline_and_algos(t: &Table, task: &str) -> Result<(f64, Vec<f64>), String> {
    let v = row_vals(t, task)?;
    let (base, algos) = v
        .split_first()
        .ok_or_else(|| format!("{SHAPE}{task}: no scores"))?;
    ensure!(
        !algos.is_empty() && col(t, "Baseline")? == 1,
        "{SHAPE}{:?}",
        t.headers
    );
    Ok((*base, algos.to_vec()))
}

/// Table 7 layout (also Table 11): the algorithm mean sits below the
/// baseline in every task group, and some algorithm drops sharply.
fn benchmark_scores_drop(r: &ExperimentResult) -> Check {
    let t = table(r, "scores on the negative benchmark")?;
    let mut sharp = false;
    for task in labels(t)? {
        let (base, algos) = baseline_and_algos(t, task)?;
        let mean = algos.iter().sum::<f64>() / algos.len() as f64;
        ensure!(
            mean < base,
            "{task}: algorithm mean {mean} vs baseline {base}"
        );
        sharp |= min(&algos) < 0.7 * base;
    }
    holds!(sharp, "no algorithm drops below 70% of the baseline")
}

/// Every listed algorithm's accuracy in `label`'s row is at least `bar` %.
fn accurate(r: &ExperimentResult, title: &str, label: &str, algos: &[&str], bar: f64) -> Check {
    let acc = vals(
        table(r, title)?,
        &algos.iter().map(|a| (label, *a)).collect::<Vec<_>>(),
    )?;
    holds!(min(&acc) >= bar, "{label} {algos:?}: {acc:?}%, bar {bar}%")
}

/// Table 8: in every compressed column, Baseline's latency over `policy`'s
/// lies in `(lo, hi]`.
fn table8_gain(r: &ExperimentResult, policy: &str, lo: f64, hi: f64) -> Check {
    let t = table(r, "Table 8")?;
    let (base, routed) = (
        vals(t, &TABLE8.map(|a| ("Baseline", a)))?,
        vals(t, &TABLE8.map(|a| (policy, a)))?,
    );
    let g: Vec<f64> = base.iter().zip(&routed).map(|(b, p)| b / p).collect();
    holds!(
        min(&g) > lo && max(&g) <= hi,
        "Baseline / {policy} for {TABLE8:?}: {g:.2?}"
    )
}

#[rustfmt::skip]
fn claims() -> Vec<Claim> {
    vec![
    // Figure 1: LLaMA-7B on A6000 (cost model).
    claim("fig1/engines-ordered", Holds,
        "Fig. 1(a-b): FP16 decode throughput is TRL < TRL+FA < LMDeploy at every batch size.",
        engines_ordered),
    claim("fig1/trl-inflates-stream-speedup", Holds,
        "Observation 1: StreamingLLM's decode speedup is larger measured on TRL than on LMDeploy.",
        |r| {
            for t in tables(r, "StreamingLLM decode speedup")? {
                let (trl, lmd) = (column(t, "TRL")?, column(t, "LMD")?);
                ensure!(trl.iter().zip(&lmd).all(|(a, b)| a > b), "{}: {trl:?} vs {lmd:?}", t.title);
            }
            Ok(())
        }),
    claim("fig1/lmd-stream-gain-insignificant", Holds,
        "Observation 1: on LMDeploy (batch 4, kv 1024) StreamingLLM gains < 1.10x in decode.",
        |r| { let s = val(table(r, "speedup vs FP16, kv=1024")?, "4", "LMD")?; holds!(s < 1.10, "{s}x") }),
    claim("fig1/prefill-kivi-parity-gear-h2o-below", Holds,
        "Fig. 1(e-h): KIVI prefills at >= 0.95x of FP16; GEAR and H2O below 0.9x, H2O ever lower.",
        |r| {
            for t in tables(r, "prefill throughput")? {
                let (k, g, h) = (ratio(t, "KIVI-4", "FP16")?, ratio(t, "GEAR-4", "FP16")?, ratio(t, "H2O-512", "FP16")?);
                let ok = min(&k) >= 0.95 && max(&g) < 0.9 && max(&h) < 0.9 && falls(&h);
                ensure!(ok, "{}: KIVI {k:.2?}, GEAR {g:.2?}, H2O {h:.2?}", t.title);
            }
            Ok(())
        }),
    claim("fig1/gear-prefill-gap-widens", Diverges("GEAR-4 0.82x at 512 -> 0.85x at 8192: it narrows"),
        "Fig. 1(e-h): GEAR's prefill gap to FP16 widens with prompt length.",
        |r| { let v = ratio(table(r, "(tok/s), batch=1")?, "GEAR-4", "FP16")?; holds!(falls(&v), "{v:.2?}") }),
    claim("fig1/decode-alike-light-sparsity-wins-heavy", Holds,
        "Fig. 1(i-l): at batch 8 all are within 15% of FP16 at kv 512; H2O, Stream win at 8192.",
        |r| {
            let t = table(r, "decode throughput (tok/s), batch=8")?;
            let (light, f512) = (vals(t, &COMPRESSED.map(|a| ("512", a)))?, val(t, "512", "FP16")?);
            let (sparse, f8192) = (vals(t, &[("8192", "H2O-512"), ("8192", "Stream-512")])?, val(t, "8192", "FP16")?);
            holds!(min(&light) >= 0.85 * f512 && max(&light) <= 1.15 * f512 && min(&sparse) > f8192,
                "kv 512 {light:?} vs FP16 {f512}; kv 8192 H2O, Stream {sparse:?} vs FP16 {f8192}")
        }),
    claim("fig1/quantizers-oom-first", Holds,
        "Fig. 1(i-l): KIVI, GEAR OOM at kv 8192 (batch 8, 32), at batch 8 where FP16 fits; never after \
         FP16; sparsity never.",
        |r| {
            let (t, t32) = (table(r, "decode throughput (tok/s), batch=8")?, table(r, "batch=32")?);
            let at = |t, h| text(t, "8192", h).map(|c| c == "OOM");
            ensure!(at(t, "KIVI-4")? && at(t, "GEAR-4")? && !at(t, "FP16")? && at(t32, "KIVI-4")? && at(t32, "GEAR-4")?,
                "kv 8192: batch 8 {:?}, batch 32 {:?}", row(t, "8192")?, row(t32, "8192")?);
            for t in tables(r, "decode throughput (tok/s), batch=")? {
                for kv in labels(t)? {
                    let oom = |h| text(t, kv, h).map(|c| c == "OOM");
                    ensure!(!oom("H2O-512")? && !oom("Stream-512")?
                        && (!oom("FP16")? || (oom("KIVI-4")? && oom("GEAR-4")?)), "{}: {:?}", t.title, row(t, kv)?);
                }
            }
            Ok(())
        }),
    // Figure 2: LLaMA-70B on H800, TP=4.
    claim("fig2/decode-gains-insignificant", Holds,
        "Fig. 2 / Observation 2: on H800 at TP=4 no algorithm decodes > 1.10x faster than FP16.",
        |r| {
            let t = table(r, "decode throughput")?;
            let v = COMPRESSED.map(|a| ratio(t, a, "FP16").map(|v| max(&v))).into_iter().collect::<Result<Vec<_>, _>>()?;
            holds!(max(&v) <= 1.10, "best speedup per algorithm: {v:.2?}")
        }),
    claim("fig2/h2o-prefill-degrades", Holds,
        "Fig. 2: H2O prefills below FP16, falling with length; 70B on 4 H800s prefills > 1000 tok/s.",
        |r| {
            let t = table(r, "prefill throughput")?;
            let (v, fp16) = (ratio(t, "H2O-512", "FP16")?, column(t, "FP16")?);
            holds!(ends(&v)?.0 < 1.0 && falls(&v) && min(&fp16) > 1000.0, "H2O/FP16 {v:.2?}, FP16 {fp16:?}")
        }),
    // Figure 3: attention-layer time.
    claim("fig3/prefill-gear-h2o-grow-fastest", Holds,
        "Fig. 3(a): GEAR's and H2O's prefill attention time grow fastest with prompt length and are the \
         slowest at 8192.",
        |r| {
            let t = table(r, "prefill")?;
            let grow = |a| column(t, a).and_then(|v| ends(&v)).map(|(first, last)| last - first);
            let (g, rest) = ([grow("GEAR-4")?, grow("H2O-512")?], [grow("FP16")?, grow("KIVI-4")?, grow("Stream-512")?]);
            let (slow, fast) = (vals(t, &[("8192", "GEAR-4"), ("8192", "H2O-512")])?,
                vals(t, &[("8192", "FP16"), ("8192", "KIVI-4"), ("8192", "Stream-512")])?);
            holds!(min(&g) > max(&rest) && min(&slow) > max(&fast),
                "growth (ms) GEAR, H2O {g:?}; FP16, KIVI, Stream {rest:?}; at 8192 {slow:?}, {fast:?}")
        }),
    claim("fig3/decode-sparsity-flat", Holds,
        "Fig. 3(b): sparsity's decode attention time stays flat (within 10%) while FP16's grows.",
        |r| {
            let t = table(r, "decode")?;
            let (h, s) = (column(t, "H2O-512")?, column(t, "Stream-512")?);
            let f = vals(t, &[("1024", "FP16"), ("8192", "FP16")])?;
            holds!(max(&h) < 1.1 * min(&h) && max(&s) < 1.1 * min(&s) && f[1] > 3.0 * f[0],
                "H2O {h:?}, Stream {s:?}, FP16 at kv 1024, 8192 {f:?}")
        }),
    // Table 3: relative speedup across TP.
    claim("table3/orderings-match-paper", Holds,
        "Table 3: prefill KIVI > 0.95x, GEAR < 1x, H2O < GEAR, Stream > H2O at every TP; TP=1 \
         decode: H2O, Stream > 1.1x.",
        |r| {
            let t = table(r, "Table 3")?;
            for tp in ["Prefill 1", "Prefill 2", "Prefill 4"] {
                let v = vals(t, &COMPRESSED.map(|a| (tp, a)))?;
                ensure!(v[0] > 0.95 && v[1] < 1.0 && v[2] < v[1] && v[3] > v[2], "{tp}: {v:?}");
            }
            let v = vals(t, &[("Decode 1", "H2O-512"), ("Decode 1", "Stream-512")])?;
            holds!(min(&v) > 1.1, "TP=1 decode H2O, Stream: {v:?}")
        }),
    claim("table3/decode-speedups-shrink-with-tp", Holds,
        "Table 3 / Observation 2: every decode speedup (> 1x at TP=1) shrinks as TP grows.",
        |r| {
            for algo in COMPRESSED {
                let v = vals(table(r, "Table 3")?, &["Decode 1", "Decode 2", "Decode 4"].map(|l| (l, algo)))?;
                ensure!(v[0] <= 1.0 || falls(&v), "{algo} by TP: {v:?}");
            }
            Ok(())
        }),
    claim("table3/fp16-throughput-near-paper", Holds,
        "Table 3: FP16 is within 2x of the paper's 6610/11041/12939 prefill, 130/195/195 decode tok/s; \
         at TP=1 within 3000-12000 and 50-300 tok/s.",
        |r| {
            let labels = ["Prefill 1", "Prefill 2", "Prefill 4", "Decode 1", "Decode 2", "Decode 4"];
            let v = vals(table(r, "Table 3")?, &labels.map(|l| (l, "FP16 (tok/s)")))?;
            let tp1 = (3000.0..12000.0).contains(&v[0]) && (50.0..300.0).contains(&v[3]);
            let v: Vec<f64> = v.iter().zip([6610.0, 11041.0, 12939.0, 130.0, 195.0, 195.0]).map(|(v, p)| v / p).collect();
            holds!(tp1 && min(&v) > 0.5 && max(&v) < 2.0, "measured / paper: {v:.2?}")
        }),
    claim("table3/prefill-flattens-at-tp4", Diverges("12858 -> 22913 tok/s: no interconnect limit modelled"),
        "Table 3: FP16 prefill barely scales from TP=2 to 4 (11041 -> 12939 tok/s, < 1.3x).",
        |r| {
            let v = vals(table(r, "Table 3")?, &["Prefill 2", "Prefill 4"].map(|l| (l, "FP16 (tok/s)")))?;
            holds!(v[1] / v[0] < 1.3, "TP=2, TP=4: {v:?}")
        }),
    claim("table3/h2o-decode-collapses-at-tp2", Diverges("1.39/1.23/1.09x: score sync is a small collective"),
        "Table 3: H2O's decode speedup collapses below parity at TP=2 (1.34x -> 0.69x).",
        |r| { let v = val(table(r, "Table 3")?, "Decode 2", "H2O-512")?; holds!(v < 1.0, "{v}x") }),
    // Table 4: semantic score and length increase.
    claim("table4/compression-lengthens-outputs", Holds,
        "Table 4: compressed verbose outputs are longer than FP16's; >= 1.5x (paper 1.55-1.76x) for \
         GEAR, H2O, Stream.",
        |r| {
            let v = vals(table(r, "Table 4")?, &SCALED.map(|a| ("Length Increase (x)", a)))?;
            holds!(min(&v) > 1.0 && min(&v[1..]) >= 1.5, "KIVI, GEAR, H2O, Stream: {v:?}")
        }),
    claim("table4/kivi4-lengthens-like-paper", Diverges("KIVI-4 1.10x: 4-bit codes barely move lengths"),
        "Table 4: KIVI-4's verbose outputs are >= 1.5x longer (paper 1.55-1.76x).",
        |r| { let v = val(table(r, "Table 4")?, "Length Increase (x)", "KIVI-4")?; holds!(v >= 1.5, "{v}x") }),
    claim("table4/quantizer-scores-move-little", Holds,
        "Table 4: KIVI and GEAR score within 5 points of FP16 (paper 50.7/46.2 vs 49.6).",
        |r| scores_within_5(r, ["KIVI-4", "GEAR-4"])),
    claim("table4/eviction-scores-move-little", Diverges("H2O 64.1, Stream 62.8 vs FP16 96.9"),
        "Table 4: H2O and Stream score within 5 points of FP16 (paper 46.2/46.3 vs 49.6).",
        |r| scores_within_5(r, ["H2O-64", "Stream-64"])),
    claim("table4/fp16-score-anchored", Holds,
        "Table 4: FP16's verbose outputs score well above zero (paper 49.6), so a drop is measurable.",
        |r| { let v = val(table(r, "Table 4")?, "Semantic Score", "FP16")?; holds!(v > 20.0, "{v}") }),
    claim("table4/fp16-score-like-paper", Diverges("FP16 96.9 against its own greedy output"),
        "Table 4: FP16 scores about 50 (49.6 against ChatGPT references).",
        |r| { let v = val(table(r, "Table 4")?, "Semantic Score", "FP16")?; holds!((40.0..=60.0).contains(&v), "{v}") }),
    // Table 5 (+ Table 9, Mistral): length variation.
    claim("table5/compression-skews-longer", Holds,
        "Observation 3: on average over its columns compression makes > 5% of samples >= 50% longer, \
         more than it makes shorter (paper 21.3-27.1% vs 6.8-16.5%).",
        |r| {
            let longer = vals(table(r, "response-length shift")?, &SCALED.map(|c| ("% D <= -50% (longer)", c)))?;
            let s = skews(r, &SCALED)?;
            holds!(s.iter().sum::<f64>() > 0.0 && longer.iter().sum::<f64>() > 20.0, "longer {longer:?}, skews {s:.1?}")
        }),
    claim("table5/temperature-is-symmetric", Holds,
        "Observation 3: temperature does not: its mean skew is below compression's.",
        |r| {
            let (t, c) = (skews(r, &["T=0.9", "T=1.1"])?, skews(r, &SCALED)?);
            holds!(t.iter().sum::<f64>() / 2.0 < c.iter().sum::<f64>() / 4.0, "temperature {t:.1?}, compression {c:.1?}")
        }),
    claim("table5/sparsity-skews-past-temperature", Holds,
        "Observation 3: H2O and Stream skew longer by more than either temperature.",
        |r| skews_past_temperature(r, &["H2O-64", "Stream-64"])),
    claim("table5/quantizers-skew-past-temperature", Diverges("1.3/1.4 points vs T=1.1's 4.5"),
        "Observation 3: KIVI and GEAR skew longer by more than either temperature.",
        |r| skews_past_temperature(r, &["KIVI-4", "GEAR-4"])),
    claim("table5/temperature-shifts-like-paper", Diverges("1.8-8.9%: TinyLM samples with less entropy"),
        "Table 5: temperature moves >= 15% of samples by >= 50% each way (paper 20.8-31.4%).",
        |r| {
            let t = table(r, "response-length shift")?;
            let v = [column(t, "T=0.9")?, column(t, "T=1.1")?].concat();
            holds!(min(&v) >= 15.0, "temperature rows {v:?}")
        }),
    claim("appendix_c/table9-sparsity-skews-past-temperature", Holds,
        "Table 9 (Mistral) / Observation 3: H2O and Stream skew longer than either temperature.",
        |r| skews_past_temperature(r, &["H2O-64", "Stream-64"])),
    claim("appendix_c/table9-quantizers-skew-past-temperature", Diverges("0.3/0.8 points vs T=1.1's 4.1"),
        "Table 9 (Mistral) / Observation 3: KIVI and GEAR skew longer than either temperature.",
        |r| skews_past_temperature(r, &["KIVI-4", "GEAR-4"])),
    // Figure 4 (+ Figure 15, Mistral): the D distribution across ratios.
    claim("fig4/eviction-higher-ratio-widens", Holds,
        "Fig. 4 plots 8 configurations; the higher-ratio eviction variant is wider and lengthens more.",
        |r| {
            let n = [table(r, "D-distribution")?.rows.len(), table(r, "D histograms")?.rows.len()];
            ensure!(n == [8, 8], "{SHAPE}rows {n:?}");
            widens(r, &[("H2O-64", "H2O-32"), ("Stream-64", "Stream-32")])
        }),
    claim("fig4/quantizer-higher-ratio-widens", Diverges("std of D 0.493 -> 0.462, 0.509 -> 0.479"),
        "Fig. 4: going from 4 to 2 bits widens the D distribution and lengthens more samples.",
        |r| widens(r, &[("KIVI-4", "KIVI-2"), ("GEAR-4", "GEAR-2")])),
    claim("appendix_c/fig15-higher-ratio-widens", Holds,
        "Fig. 15 (Mistral): in all four families the higher-ratio variant widens and lengthens.",
        |r| widens(r, &[("KIVI-4", "KIVI-2"), ("GEAR-4", "GEAR-2"), ("H2O-64", "H2O-32"), ("Stream-64", "Stream-32")])),
    // Figure 5 (+ Figure 16, Mistral): E2E latency.
    claim("fig5/cdfs-right-of-fp16", Holds,
        "Observation 4: once lengths shift, every compressed E2E latency CDF lies right of FP16's.",
        cdfs_right_of_fp16),
    claim("fig5/no-significant-e2e-gain", Holds,
        "Observation 4: no compressed algorithm's mean E2E latency is > 10% below FP16's.",
        |r| {
            let t = table(r, "E2E latency (s)")?;
            let (v, fp16) = (vals(t, &COMPRESSED.map(|a| (a, "mean")))?, val(t, "FP16", "mean")?);
            holds!(min(&v) > 0.9 * fp16, "means {v:?} vs FP16 {fp16}")
        }),
    claim("fig5/gear-worst-quantizer-tail", Holds,
        "Fig. 5: GEAR's p99 E2E latency is worse than KIVI's.",
        |r| { let v = vals(table(r, "E2E latency (s)")?, &[("GEAR-4", "p99"), ("KIVI-4", "p99")])?; holds!(v[0] > v[1], "{v:?}") }),
    claim("fig5/gear-worst-tail-overall", Diverges("p99 GEAR 1.99 s, H2O 3.71 s, Stream 3.49 s"),
        "Fig. 5: GEAR has the worst p99 E2E latency of all algorithms.",
        |r| { let t = table(r, "E2E latency (s)")?; holds!(val(t, "GEAR-4", "p99")? >= max(&column(t, "p99")?), "{:?}", t.rows) }),
    claim("appendix_c/fig16-cdfs-right-of-fp16", Holds,
        "Fig. 16 (Mistral) / Observation 4: every compressed E2E CDF lies right of FP16's.",
        cdfs_right_of_fp16),
    // Figures 6-7 (+ Figures 17-18, Mistral): negative samples.
    claim("fig6/negatives-persist", Holds,
        "Observation 5: negatives exist at every threshold; a higher threshold never adds any.",
        |r| {
            let t = table(r, NEGATIVES)?;
            for h in t.headers.iter().skip(1) {
                let v = column(t, h)?;
                ensure!(v.windows(2).all(|w| w[1] <= w[0]), "{h} by threshold: {v:?}");
            }
            let v = column(t, "Sparse (C)")?;
            holds!(min(&v) > 0.0, "Sparse (C) by threshold: {v:?}")
        }),
    claim("fig6/combining-shrinks-negatives", Holds,
        "Observation 5: Sparse (C) <= min(H2O, Stream), Quant (C) <= min(KIVI, GEAR) at every threshold.",
        combining_shrinks_negatives),
    claim("fig6/counts-fall-with-threshold", Diverges("H2O, Stream flat at 100 from 5% to 50%"),
        "Fig. 6: negative counts fall as the threshold rises.",
        |r| { let v = column(table(r, NEGATIVES)?, "H2O")?; holds!(ends(&v)?.1 < ends(&v)?.0, "{v:?}") }),
    claim("fig6/quantizers-mine-negatives", Diverges("KIVI-2, GEAR-2 mine 0 at every threshold"),
        "Fig. 6: the quantizers also produce some negative samples.",
        |r| {
            let t = table(r, NEGATIVES)?;
            let v = [column(t, "KIVI")?, column(t, "GEAR")?].concat();
            holds!(max(&v) > 0.0, "KIVI, GEAR by threshold: {v:?}")
        }),
    claim("fig7/retrieval-dominates-code-least", Holds,
        "Observation 6: retrieval tasks (QA, summarization, synthetic) hold most negatives; code least.",
        retrieval_dominates_code_least),
    claim("appendix_d/fig17-combining-shrinks-negatives", Holds,
        "Fig. 17 (Mistral) / Observation 5: combined sets never hold more negatives than members.",
        combining_shrinks_negatives),
    claim("appendix_d/fig18-retrieval-dominates-code-least", Holds,
        "Fig. 18 (Mistral) / Observation 6: retrieval tasks dominate the negatives; code least.",
        retrieval_dominates_code_least),
    // Table 6 (+ Table 10, Mistral): predictor accuracy.
    claim("table6/throughput-predictor-meets-bar", Holds,
        "Table 6: the throughput predictor is >= 85% accurate everywhere (paper 85.8-88.5%).",
        |r| accurate(r, "Table 6", "Throughput Predictor", &["FP16", "KIVI", "GEAR", "H2O", "Stream"], 85.0)),
    claim("table6/length-predictor-meets-bar", Diverges("82.7-84.3%"),
        "Table 6: the length predictor is >= 85% accurate for FP16, KIVI, GEAR (paper 88.4-95.7%).",
        |r| accurate(r, "Table 6", "Length Predictor", &["FP16", "KIVI", "GEAR"], 85.0)),
    claim("table6/eviction-length-predictor-meets-bar", Diverges("H2O 68.5%, Stream 64.6%"),
        "Table 6: the length predictor is >= 85% accurate for H2O and Stream (paper 87.8-90.0%).",
        |r| accurate(r, "Table 6", "Length Predictor", &["H2O", "Stream"], 85.0)),
    claim("table6/length-predictor-calibrated", Holds,
        "Table 6: the length predictor is usefully accurate (paper 87.8-95.7%); calibration floors \
         >= 80% for FP16, KIVI, GEAR and >= 55% for H2O, Stream.",
        |r| {
            accurate(r, "Table 6", "Length Predictor", &["FP16", "KIVI", "GEAR"], 80.0)?;
            accurate(r, "Table 6", "Length Predictor", &["H2O", "Stream"], 55.0)
        }),
    claim("appendix_d/table10-length-predictor-meets-bar", Holds,
        "Table 10 (Mistral): the length predictor is >= 85% accurate for FP16, KIVI and GEAR.",
        |r| accurate(r, "Table 10", "Length Predictor", &["FP16", "KIVI", "GEAR"], 85.0)),
    claim("appendix_d/table10-eviction-length-predictor-meets-bar", Diverges("H2O 66.9%, Stream 65.0%"),
        "Table 10 (Mistral): the length predictor is >= 85% accurate for H2O and Stream.",
        |r| accurate(r, "Table 10", "Length Predictor", &["H2O", "Stream"], 85.0)),
    // Table 7 (+ Table 11, Mistral): the negative benchmark.
    claim("table7/scores-drop-below-baseline", Holds,
        "Table 7: the algorithms' mean is below the baseline in every task group; some drop sharply.",
        benchmark_scores_drop),
    claim("table7/drops-are-partial", Diverges("every cell is 0.0 or 100.0"),
        "Table 7: compressed scores land strictly between zero and the baseline (paper 23.7-61.3).",
        |r| {
            let t = table(r, "Table 7")?;
            let algos = labels(t)?.into_iter().map(|task| baseline_and_algos(t, task).map(|(_, a)| a));
            let v = algos.collect::<Result<Vec<_>, _>>()?.concat();
            holds!(v.iter().any(|s| *s > 0.0 && *s < 100.0), "no score strictly inside (0, 100): {v:?}")
        }),
    claim("appendix_d/table11-scores-drop-below-baseline", Holds,
        "Table 11 (Mistral): the algorithms' mean is below the baseline in every task group.",
        benchmark_scores_drop),
    // Table 8: the request router.
    claim("table8/throughput-routing-beats-baseline", Holds,
        "Table 8: w/Throughput beats Baseline in every compressed column (paper 1.18-1.48x).",
        |r| table8_gain(r, "w/ Throughput", 1.0, f64::INFINITY)),
    claim("table8/length-routing-alone-can-hurt", Holds,
        "Table 8: w/Length alone is slower than Baseline in some column (paper 0.83-1.03x).",
        |r| {
            let t = table(r, "Table 8")?;
            let (b, l) = (vals(t, &TABLE8.map(|a| ("Baseline", a)))?, vals(t, &TABLE8.map(|a| ("w/ Length", a)))?);
            holds!(b.iter().zip(&l).any(|(b, l)| l > b), "Baseline {b:?}, w/Length {l:?}")
        }),
    claim("table8/both-is-best", Holds,
        "Table 8: combining both predictors gives the lowest latency in every compressed column.",
        |r| {
            let t = table(r, "Table 8")?;
            for algo in TABLE8 {
                let v = vals(t, &["w/ Both", "Baseline", "w/ Throughput", "w/ Length"].map(|p| (p, algo)))?;
                ensure!(v[0] <= min(&v[1..]), "{algo}: w/Both, Baseline, w/Throughput, w/Length {v:?}");
            }
            Ok(())
        }),
    claim("table8/both-gain-in-paper-band", Diverges("KIVI 1.13x, GEAR 1.55x, H2O 3.11x, Stream 1.15x"),
        "Table 8: w/Both is 1.45-1.80x faster than Baseline in every column.",
        |r| table8_gain(r, "w/ Both", 1.45, 1.80)),
    claim("table8/length-routing-gain-like-paper", Diverges("H2O 8.4 -> 3.0 s, 2.8x"),
        "Table 8: w/Length alone gains at most 1.03x over Baseline.",
        |r| table8_gain(r, "w/ Length", 0.0, 1.03)),
    claim("table8/latency-like-paper", Diverges("Baseline 1.6-8.4 s"),
        "Table 8: Baseline latencies are 9.1-13.4 s.",
        |r| { let v = vals(table(r, "Table 8")?, &TABLE8.map(|a| ("Baseline", a)))?; holds!(min(&v) >= 9.1 && max(&v) <= 13.4, "{v:?}") }),
    claim("table8/fp16-column-baseline-only", Holds,
        "Table 8: FP16 has only a Baseline entry; the routers choose among compressed servers.",
        |r| {
            let fp16 = cells(table(r, "Table 8")?, "FP16")?;
            let routed = fp16.split_first().map(|(base, routed)| *base != "-" && routed.iter().all(|c| *c == "-"));
            holds!(routed == Some(true), "FP16 column {fp16:?}")
        }),
    // Appendix figures on the cost model.
    claim("fig8/engines-ordered", Holds,
        "Fig. 8 repeats Fig. 1's eight panels on Mistral-7B; FP16 decode is TRL < TRL+FA < LMDeploy.",
        |r| { ensure!(r.tables.len() == 8, "{SHAPE}{} tables", r.tables.len()); engines_ordered(r) }),
    claim("fig9/snapkv-trades-prefill-for-decode", Holds,
        "Fig. 9: SnapKV prefills below FP16 at every length but decodes > 1.2x faster at kv 8192.",
        |r| {
            let pre = column(table(r, "SnapKV prefill")?, "speedup")?;
            let dec = val(table(r, "SnapKV decode")?, "8192", "speedup")?;
            holds!(max(&pre) < 1.0 && dec > 1.2, "prefill {pre:?}, decode at 8192 {dec}x")
        }),
    claim("fig10/kivi-13b-ooms", Holds,
        "Fig. 10: KIVI-4 on LLaMA-13B OOMs on one A6000 at long KV.",
        |r| { let t = table(r, "batch=32")?; holds!(text(t, "8192", "KIVI-4")? == "OOM", "{:?}", row(t, "8192")?) }),
    claim("fig11_14/tp-helps-prefill-more-than-decode", Holds,
        "Figs. 11-14: for four models, TP=4 more than doubles FP16 prefill and gains less in decode.",
        |r| {
            ensure!(r.tables.len() == 4 && r.tables[3].title.contains("70B"), "{SHAPE}{} tables", r.tables.len());
            for t in &r.tables {
                let v = vals(t, &["Prefill 1", "Prefill 4", "Decode 1", "Decode 4"].map(|l| (l, "FP16")))?;
                let (prefill, decode) = (v[1] / v[0], v[3] / v[2]);
                ensure!(prefill > 2.0 && decode < prefill, "{}: prefill {prefill:.2}x, decode {decode:.2}x", t.title);
            }
            Ok(())
        }),
    claim("table1_2/survey-missing-pieces", Holds,
        "Tables 1-2 / Missing Pieces 1, 3: most of 41 algorithms report only Transformers results; \
         none of 4 benchmark studies analyzes per-sample quality.",
        |r| {
            let n = [table(r, "Table 1")?.rows.len(), table(r, "Table 2")?.rows.len()];
            let t = table(r, "Missing pieces")?;
            let only = text(t, "Evaluated ONLY on the Transformers library (Missing Piece 1)", "Value")?;
            let per_sample = text(t, "Benchmark studies with per-sample analysis (Missing Piece 3)", "Value")?;
            let count = only.split(' ').next().and_then(num).unwrap_or(0.0);
            holds!(n == [41, 4] && t.rows.len() >= 6 && count > 20.5 && per_sample == "0/4",
                "{n:?}, {} missing pieces, {only}, {per_sample}", t.rows.len())
        }),
    // Extensions.
    claim("ext_quest/quest-matches-fp16", Holds,
        "Section 4.4: query-aware sparsity (Quest) keeps FP16's score on every task type.",
        |r| {
            let t = table(r, "task scores")?;
            let (quest, fp16) = (column(t, "Quest-64")?, column(t, "FP16")?);
            let sum = |h| column(t, h).map(|v| v.iter().sum::<f64>());
            let beats_eviction = sum("Quest-64")? > sum("H2O-64")?.max(sum("Stream-64")?);
            holds!(quest.iter().zip(&fp16).all(|(q, f)| *q >= f - 1.0) && beats_eviction,
                "Quest {quest:?}, FP16 {fp16:?}")
        }),
    claim("ext_quest/quest-mines-fewest-negatives", Holds,
        "Section 4.4: Quest mines fewer negatives than every eviction policy at the same budget.",
        |r| {
            let policies = ["Quest-64", "H2O-64", "Stream-64", "TOVA-64"];
            let v = vals(table(r, "negative samples")?, &policies.map(|a| (a, "#negatives")))?;
            holds!(v[0] < min(&v[1..]), "Quest, H2O, Stream, TOVA: {v:?}")
        }),
    claim("ext_task_router/task-aware-keeps-accuracy-saves-memory", Holds,
        "Section 5.3: task-aware compression keeps FP16's accuracy, beats Stream everywhere, and \
         stores less than FP16 or Quest everywhere.",
        |r| {
            let t = table(r, "task-aware compression")?;
            let p = ["Task-aware (classifier)", "FP16 everywhere", "Stream-64 everywhere", "Quest-64 everywhere"];
            let (s, m) = (vals(t, &p.map(|p| (p, "mean score")))?, vals(t, &p.map(|p| (p, "mean KV bytes/head")))?);
            holds!(s[0] >= s[1] - 1.0 && s[0] > s[2] && m[0] < m[1].min(m[3]), "scores {s:?}, bytes {m:?}")
        }),
    claim("ext_task_router/schedulers-serve-the-same-stream", Holds,
        "The task-routed stream is served whole by each of three schedulers; FCFS never preempts.",
        |r| {
            let t = table(r, "scheduler sweep")?;
            let done = column(t, "completed")?;
            holds!(done.len() == 3 && min(&done) > 0.0 && min(&done) == max(&done)
                && val(t, "fcfs", "preemptions")? == 0.0, "completed {done:?}")
        }),
    claim("ext_granularity/finer-granularity-keeps-more-per-byte", Holds,
        "Section 3.1.2: layer-, head- and channel-level selection keep more retrieval accuracy than \
         token eviction; ThinK stores less than FP16, more than H2O.",
        |r| {
            let t = table(r, "accuracy by sparsity granularity")?;
            let families = ["H2O-64 (token)", "PyramidKV-96-32 (layer)", "SnapKV-56 (head)", "ThinK-50 (channel)"];
            let total = |h| vals(t, &["single-doc-qa", "multi-doc-qa", "synthetic"].map(|task| (task, h))).map(|v| v.iter().sum());
            let v = families.map(total).into_iter().collect::<Result<Vec<f64>, _>>()?;
            let mem = table(r, "per-head KV memory")?;
            ensure!(t.headers.len() == 6 && t.rows.len() == 6 && mem.rows.len() == 5, "{SHAPE}{:?}", (t.rows.len(), mem.rows.len()));
            let b = vals(mem, &["H2O-64", "ThinK-50", "FP16"].map(|p| (p, "bytes")))?;
            holds!(min(&v[1..]) > v[0] && b[0] < b[1] && b[1] < b[2], "retrieval totals {v:?}; H2O, ThinK, FP16 bytes {b:?}")
        }),
    claim("ext_scheduler/policies-trade-as-designed", Holds,
        "Scheduler ablation: all serve the whole stream; SPF cuts mean TTFT below FCFS; preemptive \
         preempts (FCFS never), moving the p99 queue delay.",
        |r| {
            let t = table(r, "scheduler ablation")?;
            let (done, ttft) = (column(t, "completed")?, vals(t, &["spf", "fcfs"].map(|s| (s, "mean TTFT (s)")))?);
            let pre = vals(t, &["preemptive", "fcfs"].map(|s| (s, "preempt")))?;
            let q = vals(table(r, "Queue delay")?, &["preemptive", "fcfs"].map(|s| (s, "p99 queue (s)")))?;
            holds!(done == [1000.0; 3] && ttft[0] < ttft[1] && pre[0] > 0.0 && pre[1] == 0.0
                && q[0] != q[1], "completed {done:?}, TTFT spf/fcfs {ttft:?}, preempt {pre:?}, p99 queue {q:?}")
        }),
    claim("ext_prefix/sharing-raises-capacity", Holds,
        "Section 2.2: prefix sharing stores each system prompt once, raising peak batch and cutting \
         preemptions at the same pool; every pool completes all 600 requests.",
        |r| {
            let t = table(r, "prefix sharing")?;
            let f = |h| vals(t, &[("flat", h), ("shared", h), ("shared+tiered", h)]);
            let (d, b, p, done) = (f("dedup ratio")?, f("peak batch")?, f("preempt rate")?, column(t, "completed")?);
            holds!(d[0] == 1.0 && min(&d[1..]) > 1.0 && min(&b[1..]) > b[0] && max(&p[1..]) < p[0] && done == [600.0; 4],
                "flat, shared, shared+tiered: dedup {d:?}, peak batch {b:?}, preempt rate {p:?}; completed {done:?}")
        }),
    claim("ext_prefix/tier-turns-preemptions-into-refills", Holds,
        "Section 2.2: a host tier turns the flat pool's preemptions into PCIe refills, no worse p99 TTFT.",
        |r| {
            let refilled = val(table(r, "prefix sharing")?, "flat+tiered", "refilled")?;
            let p99 = vals(table(r, "Latency by pool")?, &["flat", "flat+tiered"].map(|p| (p, "p99 TTFT (s)")))?;
            holds!(refilled > 0.0 && p99[1] <= p99[0], "refilled {refilled}, p99 TTFT flat/tiered {p99:?}")
        }),
    claim("ext_slo/aware-raises-goodput", Holds,
        "SLO-aware admission raises goodput over SLO-blind for SPF and preemptive scheduling without \
         a worse interactive p99 TTFT.",
        |r| {
            let (g, c) = (table(r, "goodput by scheduler")?, table(r, "Per-class p99 TTFT")?);
            for s in ["spf", "preemptive"] {
                let l = [format!("{s} slo-blind"), format!("{s} slo-aware")];
                let good = vals(g, &[(l[0].as_str(), "goodput (tok/s)"), (l[1].as_str(), "goodput (tok/s)")])?;
                let tail = vals(c, &[(l[0].as_str(), "int p99 TTFT (s)"), (l[1].as_str(), "int p99 TTFT (s)")])?;
                ensure!(good[1] > good[0] && tail[1] <= tail[0], "{s} blind/aware: goodput {good:?}, p99 {tail:?}");
            }
            Ok(())
        }),
    claim("ext_slo/every-cell-serves-every-turn", Holds,
        "Every scheduler x policy cell serves all 1728 turns of the trace, goodput never exceeds \
         throughput, and FCFS ignores the policy knob.",
        |r| {
            let t = table(r, "goodput by scheduler")?;
            let (good, all) = (column(t, "goodput (tok/s)")?, column(t, "throughput (tok/s)")?);
            let done = column(t, "completed")?;
            holds!(done == [1728.0; 6] && min(&good) >= 0.0 && good.iter().zip(&all).all(|(g, a)| g <= a)
                && row(t, "fcfs slo-blind")?.get(2..) == row(t, "fcfs slo-aware")?.get(2..), "{:?}", t.rows)
        }),
    claim("ext_slo/multi-turn-dedup-beats-single-shot", Holds,
        "Parked histories dedup across turns: more than ext_prefix's single-shot shared pool.",
        |r| {
            let note = r.notes.iter().find(|n| n.contains("dedup factor")).ok_or(format!("{SHAPE}no dedup note"))?;
            let v: Vec<f64> = note.split(' ').filter_map(num).collect();
            holds!(v.len() >= 2 && v[0] > v[1], "{note}")
        }),
    claim("ext_fleet/hash-keeps-dedup-round-robin-loses-it", Holds,
        "At 16 replicas consistent hashing keeps >= 90% of one pooled server's prefix dedup; \
         round-robin keeps < 75%.",
        |r| {
            let rows = ["16 replicas, consistent_hash", "16 replicas, round_robin"];
            let v = vals(table(r, "Prefix-dedup preservation")?, &rows.map(|l| (l, "fraction of single-server dedup")))?;
            holds!(v[0] >= 0.9 && v[1] < 0.75, "hash, round-robin: {v:?}")
        }),
    claim("ext_fleet/hashing-costs-tail-latency", Holds,
        "Hashing pays in balance: its p99 TTFT exceeds round-robin's under every load; nothing drops.",
        |r| {
            let t = table(r, "offered load x sharding")?;
            for load in ["uniform", "diurnal", "bursty"] {
                let l = ["round_robin", "consistent_hash"].map(|s| format!("{load} {s}"));
                let p99 = vals(t, &[(l[0].as_str(), "p99 TTFT (s)"), (l[1].as_str(), "p99 TTFT (s)")])?;
                ensure!(p99[1] > p99[0], "{load} p99 TTFT rr/hash: {p99:?}");
            }
            let dropped = column(t, "dropped")?;
            holds!(max(&dropped) == 0.0, "dropped {dropped:?}")
        }),
    claim("ext_fleet/autoscaler-tracks-diurnal", Holds,
        "The autoscaler drains below its initial 8 replicas in the trough, reaches its 24-replica \
         ceiling, and ends with an empty queue.",
        |r| {
            let t = table(r, "Replica-count trace")?;
            let (a, q) = (column(t, "active")?, column(t, "queued")?);
            holds!(min(&a) < 8.0 && max(&a) == 24.0 && q.last() == Some(&0.0), "active {a:?}, queued {q:?}")
        }),
    ]
}

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn results_text(exp: &str) -> Result<String, String> {
    let path = repo().join("results").join(format!("{exp}.json"));
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads `results/<exp>.json` back into the `ExperimentResult` that wrote it.
fn load_result(exp: &str) -> Result<ExperimentResult, String> {
    fn strings(v: &JsonValue) -> Option<Vec<String>> {
        v.as_array()?
            .iter()
            .map(|s| s.as_str().map(str::to_owned))
            .collect()
    }
    fn table(t: &JsonValue) -> Option<Table> {
        Some(Table {
            title: t.get("title")?.as_str()?.to_owned(),
            headers: strings(t.get("headers")?)?,
            rows: t
                .get("rows")?
                .as_array()?
                .iter()
                .map(strings)
                .collect::<Option<_>>()?,
        })
    }
    let doc = JsonValue::parse(&results_text(exp)?).map_err(|e| format!("{exp}.json: {e}"))?;
    let result = || {
        Some(ExperimentResult {
            id: doc.get("id")?.as_str()?.to_owned(),
            title: doc.get("title")?.as_str()?.to_owned(),
            tables: doc
                .get("tables")?
                .as_array()?
                .iter()
                .map(table)
                .collect::<Option<_>>()?,
            notes: strings(doc.get("notes")?)?,
        })
    };
    result().ok_or_else(|| format!("{exp}.json: not an experiment result"))
}

/// Runs every claim: a `Holds` that fails, a `Diverges` that holds, and a
/// results file that is missing or does not parse are all reported, together.
#[test]
fn every_claim_reads_as_expected_on_the_committed_results() {
    let (claims, ids) = (claims(), experiment_ids());
    let mut results: BTreeMap<&str, Result<ExperimentResult, String>> = BTreeMap::new();
    let (mut seen, mut mismatches) = (BTreeSet::new(), Vec::new());
    for c in &claims {
        if !ids.contains(&c.exp) || !seen.insert(c.id) {
            mismatches.push(format!("{}: unknown experiment or duplicate id", c.id));
            continue;
        }
        let outcome = match results.entry(c.exp).or_insert_with(|| load_result(c.exp)) {
            Ok(r) => (c.check)(r),
            Err(e) => Err(format!("{SHAPE}{e}")),
        };
        match (&c.expect, outcome) {
            (Holds, Ok(())) => {}
            (Diverges(_), Err(e)) if !e.starts_with(SHAPE) => {}
            (_, Err(e)) => mismatches.push(format!("{} fails: {e}\n    paper: {}", c.id, c.paper)),
            (Diverges(why), Ok(())) => mismatches.push(format!(
                "{} now holds but is documented as a divergence ({why}): make it Holds and update EXPERIMENTS.md",
                c.id
            )),
        }
    }
    for exp in ids
        .iter()
        .filter(|exp| !claims.iter().any(|c| c.exp == **exp))
    {
        mismatches.push(format!("{exp}: no claim reads results/{exp}.json"));
    }
    assert!(
        mismatches.is_empty(),
        "{} claim mismatch(es):\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

fn experiments_md() -> String {
    std::fs::read_to_string(repo().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md is readable")
}

/// Every `✓ [id]` / `✗ [id]` citation in `doc`, in order; a mark with no
/// bracketed id after it yields an empty id.
fn citations(doc: &str) -> Vec<(&str, &str)> {
    let id = |i: usize| {
        doc[i..]
            .strip_prefix(" [")
            .and_then(|r| r.split_once(']'))
            .map_or("", |(id, _)| id)
    };
    doc.match_indices(['✓', '✗'])
        .map(|(i, mark)| (mark, id(i + mark.len())))
        .collect()
}

#[test]
fn experiments_md_cites_every_claim_and_only_claims() {
    let (claims, doc) = (claims(), experiments_md());
    let (mut problems, mut cited) = (Vec::new(), BTreeSet::new());
    for (mark, id) in citations(&doc) {
        match claims.iter().find(|c| c.id == id) {
            None => problems.push(format!("{mark} [{id}] names no claim")),
            Some(c) if matches!(c.expect, Holds) != (mark == "✓") => {
                problems.push(format!("{mark} [{id}] contradicts the claim"))
            }
            Some(_) => {
                cited.insert(id);
            }
        }
    }
    problems.extend(
        claims
            .iter()
            .filter(|c| !cited.contains(c.id))
            .map(|c| format!("[{}] is never cited", c.id)),
    );
    assert!(
        problems.is_empty(),
        "EXPERIMENTS.md vs claims:\n{}",
        problems.join("\n")
    );
}

/// Every number in `text`: the maximal runs of digits and dots that start
/// with a digit.
fn numbers(text: &str) -> Vec<f64> {
    text.split(|ch: char| !(ch.is_ascii_digit() || ch == '.'))
        .filter(|s| s.starts_with(|ch: char| ch.is_ascii_digit()))
        .filter_map(|s| s.trim_end_matches('.').parse().ok())
        .collect()
}

/// A bold span that is a number, optionally followed by `%`, `x`, `×` or `s`.
fn bold_number(span: &str) -> Option<f64> {
    let n = span.strip_suffix(['%', 'x', '×', 's']).unwrap_or(span);
    let digits = n.starts_with(|ch: char| ch.is_ascii_digit())
        && n.chars().all(|ch| ch.is_ascii_digit() || ch == '.');
    digits.then(|| n.parse().ok()).flatten()
}

/// A section (a `## ` heading, or a bold `` **`ext_*` `` paragraph) may
/// only bold a number that occurs in the results of the claims it cites.
#[test]
fn every_bold_number_in_experiments_md_occurs_in_its_results() {
    let doc = experiments_md();
    let mut sections = vec![String::new()];
    for line in doc.lines() {
        if line.starts_with("## ") || line.starts_with("**`") {
            sections.push(String::new());
        }
        let last = sections.len() - 1;
        sections[last] += line;
        sections[last].push('\n');
    }
    let mut problems = Vec::new();
    for section in &sections {
        let heading = section.lines().next().unwrap_or("");
        let bold: Vec<&str> = section
            .split("**")
            .skip(1)
            .step_by(2)
            .filter(|s| bold_number(s).is_some())
            .collect();
        let exps: BTreeSet<&str> = citations(section)
            .iter()
            .filter_map(|(_, id)| Some(id.split_once('/')?.0))
            .collect();
        let mut known = Vec::new();
        for exp in exps.iter().filter(|_| !bold.is_empty()) {
            match results_text(exp) {
                Ok(text) => known.extend(numbers(&text)),
                Err(e) => problems.push(e),
            }
        }
        for span in bold
            .iter()
            .filter(|s| !known.contains(&bold_number(s).unwrap_or(f64::NAN)))
        {
            problems.push(format!("{heading}: **{span}** occurs in none of {exps:?}"));
        }
    }
    assert!(
        problems.is_empty(),
        "bold numbers without data:\n{}",
        problems.join("\n")
    );
}
