//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--exp <id>|all|figures] [--scale quick|paper] [--out <dir>] [--list]
//! ```
//!
//! Prints each experiment's rows/series in paper layout and writes a JSON
//! copy under the output directory. An output whose bytes are unchanged is
//! left untouched.

use rkvc_core::experiments::{experiment_ids, run_by_id, RunOptions, Scale};
use rkvc_core::figures::render_all;
use rkvc_core::report::{save_json, write_if_changed};

/// The default directory `repro` writes JSON and SVG into.
const RESULTS_DIR: &str = "results";

fn usage() -> ! {
    eprintln!(
        "usage: repro [--exp <id>|all|figures] [--scale quick|paper] [--out <dir>] [--list]\n\
         experiments: {} (plus 'figures' to render the SVG figure set)",
        experiment_ids().join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exp = "all".to_owned();
    let mut scale = Scale::Paper;
    let mut out = RESULTS_DIR.to_owned();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--exp" => exp = it.next().unwrap_or_else(|| usage()).clone(),
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("quick") => Scale::Quick,
                    Some("paper") => Scale::Paper,
                    _ => usage(),
                }
            }
            "--out" => out = it.next().unwrap_or_else(|| usage()).clone(),
            "--list" => {
                for id in experiment_ids() {
                    println!("{id}");
                }
                return;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    let opts = RunOptions {
        scale,
        ..RunOptions::paper()
    };
    // A run that could not write an output must not read as a success:
    // gate 5 of check_hermetic.sh diffs this directory.
    let mut write_failed = false;
    if exp == "figures" || exp == "all" {
        let dir = std::path::Path::new(&out);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {out}: {e}");
            std::process::exit(1);
        }
        for (name, svg) in render_all(&opts) {
            let path = dir.join(&name);
            match write_if_changed(&path, svg) {
                Ok(true) => println!("wrote {}", path.display()),
                Ok(false) => println!("unchanged {}", path.display()),
                Err(e) => {
                    eprintln!("error: could not write {}: {e}", path.display());
                    write_failed = true;
                }
            }
        }
    }

    let ids: Vec<&str> = match exp.as_str() {
        "all" => experiment_ids(),
        "figures" => Vec::new(),
        id => vec![id],
    };

    for id in ids {
        let started = std::time::Instant::now();
        match run_by_id(id, &opts) {
            Some(result) => {
                println!("{result}");
                println!(
                    "[{}] finished in {:.1}s\n",
                    id,
                    started.elapsed().as_secs_f64()
                );
                if let Err(e) = save_json(&out, id, &result) {
                    eprintln!("error: could not save {out}/{id}.json: {e}");
                    write_failed = true;
                }
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                usage();
            }
        }
    }
    if write_failed {
        std::process::exit(1);
    }
}
