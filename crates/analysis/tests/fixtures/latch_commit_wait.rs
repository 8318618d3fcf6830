// Fixture for the commit-wait half of `latch-hold-io` / `latch-hold-io-ip`.
// Not compiled — lexed by the test suite under a virtual `crates/core/src/`
// path. `wait_durable` parks on the log's fsync: only the quiesce latch may
// be held across it.
struct Db;

impl Db {
    /// BAD: the WAL guard is io_safe for the `write`, never for the commit
    /// fsync — every other statement queues behind the device.
    fn wait_under_wal_guard(&self, pos: u64) -> io::Result<()> {
        let wal = self.wal.lock();
        self.tail.wait_durable(pos)?;
        consume(wal);
        Ok(())
    }

    /// BAD: the visibility latch held across the wait stalls every reader.
    fn wait_under_visibility(&self, pos: u64) -> io::Result<()> {
        let vis = self.txns.write_visibility();
        self.tail.wait_durable(pos)?;
        consume(vis);
        Ok(())
    }

    /// GOOD: the quiesce latch stays, so no checkpoint resets the log under
    /// a parked waiter.
    fn wait_under_quiesce_only(&self, pos: u64) -> io::Result<()> {
        let quiesce = self.quiesce.read();
        self.tail.wait_durable(pos)?;
        consume(quiesce);
        Ok(())
    }

    /// GOOD: write under the guard, release it, then wait; publish after.
    fn write_release_wait_publish(&self, pos: u64) -> io::Result<()> {
        let quiesce = self.quiesce.read();
        let wal = self.wal.lock();
        wal.append(&self.record)?;
        drop(wal);
        self.tail.wait_durable(pos)?;
        let vis = self.txns.write_visibility();
        consume(vis);
        consume(quiesce);
        Ok(())
    }

    // Interprocedural twins: the wait is two calls away from the guard.
    fn park(&self, pos: u64) {
        self.tail.wait_durable(pos);
    }

    fn finish_statement(&self, pos: u64) {
        self.park(pos);
    }

    /// BAD: WAL guard held across a call that reaches the commit wait.
    fn far_wait_under_wal_guard(&self, pos: u64) {
        let wal = self.wal.lock();
        self.finish_statement(pos);
        consume(wal);
    }

    /// BAD: visibility latch held across a call that reaches it.
    fn far_wait_under_visibility(&self, pos: u64) {
        let vis = self.txns.read_visibility();
        self.finish_statement(pos);
        consume(vis);
    }

    /// GOOD: the guard goes first.
    fn far_wait_after_release(&self, pos: u64) {
        let wal = self.wal.lock();
        drop(wal);
        self.finish_statement(pos);
    }
}
