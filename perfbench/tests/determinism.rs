//! The seeded generator is the benchmark's only source of inputs: the
//! same seed must give a byte-identical stream, another seed a different
//! one. Each digest comes from a fresh process, because proxy serial
//! numbers are drawn from a process-wide counter.

use std::process::Command;

fn digest(workload: &str, seed: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .arg("--digest")
        .output()
        .expect("perfbench runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).expect("digest is UTF-8");
    let digest = text.trim().to_string();
    assert_eq!(digest.len(), 64, "unexpected digest output {text:?}");
    digest
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    for workload in ["status-warm", "proxy-churn", "submit-cancel-durable"] {
        let first = digest(workload, 7);
        assert_eq!(first, digest(workload, 7), "{workload}: seed 7 is not reproducible");
        assert_ne!(first, digest(workload, 8), "{workload}: seeds 7 and 8 give the same stream");
    }
}
