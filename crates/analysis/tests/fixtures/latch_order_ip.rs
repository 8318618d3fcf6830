// Golden fixture for `latch-order-ip`: the inversion is invisible to the
// intraprocedural rule (no single function nests two acquisitions) and
// only falls out of summary propagation across two calls.
struct Db;

impl Db {
    // Innermost: acquires the composite registry (rank 30).
    fn deep_acquire(&self) {
        let g = self.composites.write();
        g.touch();
    }

    // Middle hop: no latch activity of its own.
    fn middle(&self) {
        self.deep_acquire();
    }

    // BAD: primary index (rank 50) held across a call that reaches rank 30.
    fn bad_top(&self) {
        let t = self.primary.read();
        self.middle();
        t.len();
    }

    // BAD: same-level re-acquisition through a call (≤ semantics): the
    // registry write latch is held while `middle` reaches another
    // registry acquisition — self-deadlock, not an ordering issue.
    fn bad_same_level(&self) {
        let g = self.composites.write();
        self.middle();
        g.touch();
    }

    // GOOD: the guard is dropped before the call.
    fn good_drops_first(&self) {
        let t = self.primary.read();
        t.len();
        drop(t);
        self.middle();
    }

    // GOOD: holding an outer level (quiesce, rank 10) across a call that
    // reaches an inner one (rank 30) is the declared order.
    fn good_outer_held(&self) {
        let q = self.quiesce.read();
        self.middle();
        drop(q);
    }
}
