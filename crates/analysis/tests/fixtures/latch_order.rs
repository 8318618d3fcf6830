// Fixture for the `latch-order` rule. Not compiled — lexed by the test
// suite under a virtual `crates/core/src/` path.

/// BAD: primary index (rank 50) held while taking a per-index latch (rank 40).
fn out_of_order(db: &Db) {
    let primary = db.primary.read();
    let tree = db.tree.read();
    consume(primary, tree);
}

/// GOOD: same latches, declared order (per-index latch before primary).
fn in_order(db: &Db) {
    let tree = db.tree.read();
    let primary = db.primary.read();
    consume(tree, primary);
}

/// GOOD: dropping the outer guard before re-acquiring lower is legal.
fn drop_then_reacquire(db: &Db) {
    let primary = db.primary.read();
    let n = primary.len();
    drop(primary);
    let tree = db.tree.read();
    consume(tree, n);
}

/// BAD: guard-returning method while holding the primary index.
fn registry_under_primary(db: &Db) {
    let primary = db.primary.write();
    let composites = db.composites_mut();
    consume(primary, composites);
}
