// Golden fixture for `latch-hold-io-ip`: the fsync is two calls away from
// the guard, so the intraprocedural `latch-hold-io` cannot see it.
struct Db;

impl Db {
    // Innermost: reaches the device.
    fn persist(&self) {
        self.file.sync_all();
    }

    // Middle hop: transitively does I/O, acquires nothing.
    fn apply_all(&self) {
        self.persist();
    }

    // BAD: a per-index latch (non-io_safe) held across a call that fsyncs.
    fn bad_hold(&self) {
        let t = self.tree.write();
        self.apply_all();
        t.len();
    }

    // GOOD: the WAL guard is io_safe — bracketing durable statements is
    // exactly what it is for.
    fn good_wal_bracket(&self) {
        let w = self.wal.lock();
        self.apply_all();
        drop(w);
    }

    // GOOD: guard released before the I/O-reaching call.
    fn good_release_first(&self) {
        let t = self.tree.write();
        t.len();
        drop(t);
        self.apply_all();
    }
}
