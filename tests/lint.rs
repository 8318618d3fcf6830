//! Workspace manifest checks.

use std::path::Path;

/// Every member manifest inherits `[workspace.lints]` (`unsafe_code =
/// "forbid"` among them), shims included: a member that drops the opt-in
/// silently loses the lints. The count is exact, so a member added or
/// removed without this list being read again fails here.
#[test]
fn every_member_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    assert!(manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""));
    let members = manifest.split("members = [").nth(1).unwrap().split(']').next().unwrap();
    let dirs: Vec<&str> = std::iter::once(".")
        .chain(members.split(',').map(|m| m.trim().trim_matches('"')))
        .filter(|d| !d.is_empty())
        .collect();
    assert_eq!(dirs.len(), 16, "the root package, 10 crates and 5 shims: {dirs:?}");
    for dir in dirs {
        let text = std::fs::read_to_string(root.join(dir).join("Cargo.toml")).unwrap();
        assert!(text.contains("\n[lints]\nworkspace = true\n"), "{dir}/Cargo.toml opts out");
    }
}
