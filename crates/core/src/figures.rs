//! SVG figure generation for the paper's main plots.
//!
//! Complements the tabular output of [`crate::experiments`]: each function
//! regenerates one figure's series from the underlying substrates and
//! renders it with [`crate::plot`]. `render_all` produces the full set the
//! `repro` binary writes next to the JSON results.

use rkvc_gpu::{DeploymentSpec, EngineKind, LlmSpec};
use rkvc_kvcache::CompressionConfig;

use crate::experiments::common::{a6000_lmdeploy, paper_algos, tiny_llama};
use crate::experiments::{fig4, fig6, RunOptions};
use crate::negative::threshold_sweep;
use crate::plot::{bar_chart, line_chart, PlotOptions, Series};

fn dep7b() -> DeploymentSpec {
    a6000_lmdeploy(LlmSpec::llama2_7b())
}

/// Figure 1(a-b): FP16 decode throughput per engine across batch sizes.
pub(crate) fn fig1ab_svg() -> String {
    let mut dep = dep7b();
    let batches = [1usize, 2, 4, 8, 16, 32];
    let series: Vec<Series> = EngineKind::all()
        .into_iter()
        .map(|engine| {
            dep.engine = engine;
            Series::new(
                engine.label(),
                batches
                    .iter()
                    .map(|&b| {
                        (
                            b as f64,
                            dep.decode_throughput(&CompressionConfig::Fp16, b, 4096),
                        )
                    })
                    .collect(),
            )
        })
        .collect();
    line_chart(
        &series,
        &PlotOptions::new(
            "Fig 1(a-b): FP16 decode throughput by engine (kv=4096)",
            "batch size",
            "tokens/s",
        )
        .log2_x(),
    )
}

/// Figure 1(c-d): StreamingLLM decode speedup per engine across batches.
pub(crate) fn fig1cd_svg() -> String {
    let mut dep = dep7b();
    let stream = CompressionConfig::streaming(64, 448);
    let batches = [1usize, 2, 4, 8, 16, 32];
    let series: Vec<Series> = EngineKind::all()
        .into_iter()
        .map(|engine| {
            dep.engine = engine;
            Series::new(
                engine.label(),
                batches
                    .iter()
                    .map(|&b| {
                        let s = dep.decode_throughput(&stream, b, 4096)
                            / dep.decode_throughput(&CompressionConfig::Fp16, b, 4096);
                        (b as f64, s)
                    })
                    .collect(),
            )
        })
        .collect();
    line_chart(
        &series,
        &PlotOptions::new(
            "Fig 1(c-d): StreamingLLM decode speedup vs FP16 (kv=4096)",
            "batch size",
            "speedup (x)",
        )
        .log2_x(),
    )
}

/// Figure 1(e-h): prefill throughput per algorithm across prompt lengths.
pub(crate) fn fig1eh_svg() -> String {
    let dep = dep7b();
    let lens = [512usize, 1024, 2048, 4096, 8192];
    let series: Vec<Series> = paper_algos()
        .into_iter()
        .map(|(label, cfg)| {
            Series::new(
                label,
                lens.iter()
                    .map(|&l| (l as f64, dep.prefill_throughput(&cfg, 1, l)))
                    .collect(),
            )
        })
        .collect();
    line_chart(
        &series,
        &PlotOptions::new(
            "Fig 1(e-h): prefill throughput by algorithm (batch=1)",
            "prompt length",
            "tokens/s",
        )
        .log2_x(),
    )
}

/// Figure 1(i-l): decode throughput per algorithm across KV lengths.
pub(crate) fn fig1il_svg() -> String {
    let dep = dep7b();
    let lens = [512usize, 1024, 2048, 4096, 8192];
    let series: Vec<Series> = paper_algos()
        .into_iter()
        .map(|(label, cfg)| {
            Series::new(
                label,
                lens.iter()
                    .map(|&l| (l as f64, dep.decode_throughput(&cfg, 8, l)))
                    .collect(),
            )
        })
        .collect();
    line_chart(
        &series,
        &PlotOptions::new(
            "Fig 1(i-l): decode throughput by algorithm (batch=8)",
            "KV length",
            "tokens/s",
        )
        .log2_x(),
    )
}

/// Figure 3: attention-layer execution time per algorithm (one stage).
pub(crate) fn fig3_svg(decode: bool) -> String {
    let dep = dep7b();
    let lens = [512usize, 1024, 2048, 4096, 8192];
    let series: Vec<Series> = paper_algos()
        .into_iter()
        .map(|(label, cfg)| {
            Series::new(
                label,
                lens.iter()
                    .map(|&l| (l as f64, dep.attention_layer_time(&cfg, 1, l, decode) * 1e3))
                    .collect(),
            )
        })
        .collect();
    let stage = if decode { "decode" } else { "prefill" };
    line_chart(
        &series,
        &PlotOptions::new(
            format!("Fig 3: attention-layer time, {stage} (batch=1)"),
            "length",
            "milliseconds",
        )
        .log2_x(),
    )
}

/// Figure 4: distribution width (std of D) and lengthened fraction per
/// compression configuration, measured on TinyLM.
pub(crate) fn fig4_svg(opts: &RunOptions) -> String {
    let model = tiny_llama();
    let n = fig4::sample_count(opts);
    let sweep = rkvc_workload::compression_ratio_sweep();
    let stats = fig4::measure_sweep(&model, sweep.iter().map(|a| &a.config), n, opts.seed);
    let mut cats = Vec::new();
    let mut std_pts = Vec::new();
    let mut longer_pts = Vec::new();
    for (i, (algo, stats)) in sweep.iter().zip(&stats).enumerate() {
        cats.push(algo.label.clone());
        std_pts.push((i as f64, stats.std_dev()));
        longer_pts.push((i as f64, stats.frac_le(-1e-9)));
    }
    bar_chart(
        &cats,
        &[
            Series::new("std of D", std_pts),
            Series::new("frac longer", longer_pts),
        ],
        &PlotOptions::new(
            "Fig 4: length-shift distribution width by compression ratio",
            "",
            "value",
        ),
    )
}

/// Figure 6: threshold vs negative-sample count per algorithm family.
pub(crate) fn fig6_svg(opts: &RunOptions) -> String {
    let model = tiny_llama();
    let scores = fig6::score_suite(&model, opts);
    let thetas = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5];
    let sets: [(&str, Vec<&str>); 4] = [
        ("Quant (C)", vec!["KIVI-2", "GEAR-2"]),
        ("H2O", vec!["H2O-64"]),
        ("Stream", vec!["Stream-64"]),
        ("Sparse (C)", vec!["H2O-64", "Stream-64"]),
    ];
    let series: Vec<Series> = sets
        .iter()
        .map(|(label, algos)| {
            Series::new(
                *label,
                threshold_sweep(&scores, algos, &thetas)
                    .into_iter()
                    .map(|(t, c)| (t * 100.0, c as f64))
                    .collect(),
            )
        })
        .collect();
    line_chart(
        &series,
        &PlotOptions::new(
            "Fig 6: negative samples vs threshold",
            "threshold (%)",
            "#negative samples",
        ),
    )
}

/// One figure-set row: the file name and the renderer that writes it.
type Figure = (&'static str, fn(&RunOptions) -> String);

/// The figure set, in the order `render_all` writes it.
const FIGURES: [Figure; 8] = [
    ("fig1ab_engines.svg", |_| fig1ab_svg()),
    ("fig1cd_speedup.svg", |_| fig1cd_svg()),
    ("fig1eh_prefill.svg", |_| fig1eh_svg()),
    ("fig1il_decode.svg", |_| fig1il_svg()),
    ("fig3_prefill.svg", |_| fig3_svg(false)),
    ("fig3_decode.svg", |_| fig3_svg(true)),
    ("fig4_length_shift.svg", fig4_svg),
    ("fig6_negatives.svg", fig6_svg),
];

/// Renders the full figure set as `(file name, svg)` pairs.
pub fn render_all(opts: &RunOptions) -> Vec<(String, String)> {
    FIGURES
        .iter()
        .map(|&(name, render)| (name.to_owned(), render(opts)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytical_figures_render() {
        for svg in [fig1ab_svg(), fig1cd_svg(), fig1eh_svg(), fig1il_svg(), fig3_svg(true)] {
            assert!(svg.starts_with("<svg"));
            assert!(svg.contains("polyline"));
            assert!(svg.ends_with("</svg>"));
        }
    }

    #[test]
    fn fig1ab_series_cover_all_engines() {
        let svg = fig1ab_svg();
        for label in ["TRL", "TRL+FA", "LMD"] {
            assert!(svg.contains(label), "{label} missing from legend");
        }
    }

    #[test]
    fn model_driven_figures_render_at_quick_scale() {
        let opts = RunOptions::quick();
        let svg = fig4_svg(&opts);
        assert!(svg.contains("<rect"));
        let svg6 = fig6_svg(&opts);
        assert!(svg6.contains("polyline"));
    }

    #[test]
    fn render_all_produces_unique_files() {
        let names: std::collections::BTreeSet<&str> =
            FIGURES.iter().map(|&(name, _)| name).collect();
        assert_eq!(names.len(), FIGURES.len(), "duplicate file name in FIGURES");
    }
}
