//! Stock-market scenario from the paper's introduction (§3's running
//! example and Fig. 26): a wide table of daily high/low prices where each
//! high column is indexed through its correlated low column, with jump
//! days surfacing as TRS-Tree outliers.
//!
//! ```text
//! cargo run --release --example stock_market
//! ```

use hermit::core::RangePredicate;
use hermit::storage::TidScheme;
use hermit::trs::ConcurrentTrsTree;
use hermit::workloads::{build_stock, StockConfig};

fn main() {
    let cfg =
        StockConfig { stocks: 20, days: 10_000, jump_probability: 0.003, ..Default::default() };
    println!(
        "building {} stocks × {} trading days ({} columns)…",
        cfg.stocks,
        cfg.days,
        cfg.width()
    );
    let mut db = build_stock(&cfg, TidScheme::Physical);

    // The DBA has indexes on every *low* column. Queries keep arriving on
    // the *high* columns, so index all of them the Hermit way: each high
    // column routes through its own low column.
    for s in 0..cfg.stocks {
        db.create_hermit_index(cfg.high_col(s), cfg.low_col(s)).unwrap();
    }

    let report = db.memory_report();
    println!(
        "memory: table {:.1} MB | existing (low) indexes {:.1} MB | new (high) Hermit indexes {:.1} MB",
        report.table as f64 / 1048576.0,
        report.existing_indexes as f64 / 1048576.0,
        report.new_indexes as f64 / 1048576.0,
    );

    // Fig. 26's point: jump days (high diverging >50% from low) live in
    // outlier buffers rather than poisoning the regression.
    let stock = 0;
    let hermit::core::SecondaryIndex::Hermit { trs, .. } = db.index(cfg.high_col(stock)).unwrap()
    else {
        unreachable!()
    };
    report_outliers(trs, stock);

    // The paper's example query: "during which time periods does stock X's
    // highest price fall between Y and Z?" — a high-column range conjoined
    // with a TIME range, both validated at the base table.
    let (lo, hi) = db.heap().stats(cfg.high_col(stock)).unwrap().range().unwrap();
    let band = (lo + (hi - lo) * 0.45, lo + (hi - lo) * 0.55);
    let result = db.lookup_range(
        RangePredicate::range(cfg.high_col(stock), band.0, band.1),
        Some(RangePredicate::range(0, 2_000.0, 8_000.0)),
    );
    println!(
        "days with high_{stock} in [{:.2}, {:.2}] during days 2000–8000: {} (false positives filtered: {})",
        band.0,
        band.1,
        result.rows.len(),
        result.false_positives
    );

    // Show a few matching days.
    for &loc in result.rows.iter().take(5) {
        let t = db.heap().value_f64(loc, 0).unwrap().unwrap();
        let h = db.heap().value_f64(loc, cfg.high_col(stock)).unwrap().unwrap();
        println!("  day {t:>6.0}  high = {h:.2}");
    }
}

fn report_outliers(trs: &ConcurrentTrsTree, stock: usize) {
    let stats = trs.stats();
    println!(
        "TRS-Tree on high_{stock}: {} leaves, {} internals, height {}, {} buffered outliers, {:.1} KB",
        stats.leaves,
        stats.internals,
        stats.height,
        stats.outliers,
        stats.memory_bytes as f64 / 1024.0
    );
}
