//! Table 1 — the full-system configuration, reproduced as the simulator's
//! default parameters.

use metrics::Table;
use noc_sim::config::SimConfig;

/// Render the Table 1 configuration actually used by the simulator.
pub fn table() -> Table {
    let c = SimConfig::table1();
    let mut t = Table::new(
        "Table 1 — system configuration (paper vs simulator defaults)",
        &["parameter", "paper", "simulator"],
    );
    t.row(vec![
        "Cores".into(),
        "64 UltraSPARC III+".into(),
        format!("{} nodes ({}x{} mesh)", c.num_nodes(), c.width, c.height),
    ]);
    t.row(vec![
        "Shared L2$/bank latency".into(),
        "6 cycles".into(),
        format!("{} cycles", c.l2_latency),
    ]);
    t.row(vec![
        "Memory latency".into(),
        "128 cycles".into(),
        format!("{} cycles", c.mem_latency),
    ]);
    // A long packet is a head flit plus the block's data flits, 16 B each.
    t.row(vec![
        "Block size".into(),
        "64 bytes".into(),
        format!("{} bytes", (c.long_flits - 1) * 16),
    ]);
    t.row(vec![
        "Virtual channels".into(),
        "4/class, atomic, 5-flit".into(),
        format!(
            "{} adaptive (+{} escape), atomic, {}-flit",
            c.adaptive_vcs, c.num_classes, c.vc_depth
        ),
    ]);
    t.row(vec![
        "Link bandwidth".into(),
        "128 bits/cycle".into(),
        "1 flit (16 B)/cycle".into(),
    ]);
    t.row(vec![
        "Packets".into(),
        "16B 1-flit / 64B+head 5-flit".into(),
        format!("{} / {} flits", c.short_flits, c.long_flits),
    ]);
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_all_rows() {
        let t = super::table();
        assert_eq!(t.num_rows(), 7);
        let s = t.render();
        assert!(s.contains("128 cycles"));
        assert!(s.contains("64 nodes"));
    }
}
