//! The experiment registry is what `repro` and `results/` say it is: names
//! are unique and map one-to-one onto the committed `results/*.txt`, every
//! row runs in-process at `--quick` with byte-identical output on a rerun,
//! and `repro` rejects names and flags it does not know.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use lotec_bench::experiments::{Ctx, Experiment, EXPERIMENTS};

#[test]
fn names_are_unique_and_match_the_committed_results() {
    let names: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.name.to_owned()).collect();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let pinned: BTreeSet<String> = std::fs::read_dir(&results)
        .expect("results/ is readable")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| {
            path.file_stem()
                .expect("file name")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let missing: Vec<_> = names.difference(&pinned).collect();
    let extra: Vec<_> = pinned.difference(&names).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "experiments without a results/<name>.txt: {missing:?}; results/*.txt without an \
         experiment: {extra:?} (results/ is gitignored, so a stray local .txt there trips \
         this too; pinned files are force-added)"
    );
}

fn run_quick(experiment: &Experiment) -> Vec<u8> {
    let ctx = Ctx::parse(experiment.name, &["--quick".to_owned()]).expect("valid flags");
    let mut out = Vec::new();
    (experiment.run)(&ctx, &mut out).expect("writing to a Vec cannot fail");
    out
}

#[test]
fn every_experiment_runs_quick_and_repeats_byte_for_byte() {
    for experiment in EXPERIMENTS {
        let first = run_quick(experiment);
        assert!(!first.is_empty(), "{} printed nothing", experiment.name);
        assert!(
            first == run_quick(experiment),
            "{} printed different bytes on a rerun",
            experiment.name
        );
    }
}

#[test]
fn repro_rejects_unknown_names_and_flags_with_exit_2() {
    for args in [&["fig3", "--qiuck"][..], &["fig9", "--quick"], &[]] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro starts");
        assert_eq!(output.status.code(), Some(2), "repro {args:?}");
        assert!(output.stdout.is_empty(), "repro {args:?} ran an experiment");
        let usage = String::from_utf8_lossy(&output.stderr);
        for experiment in EXPERIMENTS {
            assert!(
                usage.contains(experiment.name),
                "usage omits {}",
                experiment.name
            );
        }
    }
}

#[test]
fn smoke_rejects_flags_it_does_not_act_on() {
    for flag in ["--quick", "--csv", "--qiuck"] {
        // Run elsewhere: a smoke that wrongly ran would write BENCH_smoke.json.
        let output = Command::new(env!("CARGO_BIN_EXE_smoke"))
            .arg(flag)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("smoke starts");
        assert_eq!(output.status.code(), Some(2), "smoke {flag}");
        assert!(output.stdout.is_empty(), "smoke {flag} ran");
        assert!(String::from_utf8_lossy(&output.stderr).contains(flag));
    }
}
