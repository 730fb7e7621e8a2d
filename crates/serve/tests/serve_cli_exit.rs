//! End-to-end exit-code contract of `serve_cli`: an unfusible
//! mixed-architecture sweep is rejected by planner-gated admission with a
//! typed error and a non-zero exit, a service that cannot be built exits 1
//! with its error, and the normal path stays zero.

use std::process::Command;

#[test]
fn mixed_arch_submission_exits_nonzero_with_typed_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve_cli"))
        .arg("--mixed-arch")
        .output()
        .expect("serve_cli runs");
    assert!(
        !out.status.success(),
        "unfusible sweep must fail: stdout={} stderr={}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("not fusible"),
        "stderr carries the typed ServeError message: {stderr}"
    );
    assert!(
        stderr.contains("mixed"),
        "stderr names the rejected tenant: {stderr}"
    );
}

#[test]
fn homogeneous_submission_still_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve_cli"))
        .args(["--tenants", "1", "--trials", "2"])
        .output()
        .expect("serve_cli runs");
    assert!(
        out.status.success(),
        "stdout={} stderr={}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

#[test]
fn usage_error_still_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve_cli"))
        .arg("--bogus")
        .output()
        .expect("serve_cli runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unbuildable_checkpoint_dir_exits_one_without_panicking() {
    let file = std::env::temp_dir().join(format!("hfta-serve-cli-file-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_serve_cli"))
        .arg("--ckpt-dir")
        .arg(file.join("ckpt"))
        .output()
        .expect("serve_cli runs");
    let _ = std::fs::remove_file(&file);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr={stderr}");
    assert!(stderr.contains("service failed to start"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
