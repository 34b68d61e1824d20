//! Regenerates Table 1: the dataset inventory, paper sizes vs. the
//! synthetic stand-ins actually generated at each scale.
//!
//! Usage: `cargo run --release -p maxk-bench --bin table1_datasets
//!         [--scale test|bench|train]`

use maxk_bench::{Args, Table};
use maxk_graph::datasets::{Scale, CATALOG};

fn main() {
    let args = Args::from_env();
    let scale = match args.get_str("scale", "bench").as_str() {
        "test" => Scale::Test,
        "train" => Scale::Train,
        _ => Scale::Bench,
    };
    println!("# Table 1: graph datasets (paper vs. synthetic stand-in at {scale:?} scale)\n");
    let mut table = Table::new(vec![
        "graph",
        "paper #nodes",
        "paper #edges",
        "paper avg-deg",
        "gen #nodes",
        "gen #edges",
        "gen avg-deg",
        "gen max-deg",
        "kind",
    ]);
    for spec in CATALOG {
        let ds = spec.load(scale, 0x5eed).expect("generator output is valid");
        table.row(vec![
            spec.name.to_owned(),
            spec.paper_nodes.to_string(),
            spec.paper_edges.to_string(),
            format!("{:.1}", spec.paper_avg_degree()),
            ds.csr.num_nodes().to_string(),
            ds.csr.num_edges().to_string(),
            format!("{:.1}", ds.csr.avg_degree()),
            ds.csr.max_degree().to_string(),
            format!("{:?}", spec.kind),
        ]);
    }
    table.print();
    println!(
        "\nStand-ins preserve average degree (density-capped at n/8 for scaled graphs) \
         and a heavy-tailed profile for power-law graphs."
    );
}
