//! Regenerates every table and figure of the paper, plus the ablations
//! and the scheme zoo, at the `CQ_SCALE` size (default `quick`), printing
//! each report followed by its wall-clock time.
use cq_bench::{experiments, Scale};
use std::time::Instant;

type Section = (&'static str, Box<dyn Fn() -> String>);

fn main() {
    let scale = Scale::from_env();
    let t0 = Instant::now();
    let sections: Vec<Section> = vec![
        ("table1", Box::new(experiments::tables::table1)),
        (
            "table2",
            Box::new(move || experiments::tables::table2(scale)),
        ),
        ("fig6", Box::new(move || experiments::fig6::run(scale))),
        (
            "fig7a",
            Box::new(move || experiments::fig7::run(experiments::fig7::Variant::Cifar10, scale)),
        ),
        (
            "fig7b",
            Box::new(move || experiments::fig7::run(experiments::fig7::Variant::Cifar100, scale)),
        ),
        (
            "table3",
            Box::new(move || experiments::tables::table3(scale)),
        ),
        ("fig8", Box::new(move || experiments::fig8::run(scale))),
        ("fig9", Box::new(move || experiments::fig9::run(scale))),
        ("fig10", Box::new(move || experiments::fig10::run(scale))),
        (
            "ablations",
            Box::new(move || experiments::ablations::run(scale)),
        ),
        (
            "schemes",
            Box::new(move || experiments::schemes::run(scale)),
        ),
    ];
    for (name, f) in sections {
        let t = Instant::now();
        let report = f();
        println!("{report}");
        println!(
            "[{name} regenerated in {:.1}s]\n",
            t.elapsed().as_secs_f64()
        );
    }
    println!(
        "All tables and figures regenerated in {:.1}s at {scale:?} scale.",
        t0.elapsed().as_secs_f64()
    );
}
