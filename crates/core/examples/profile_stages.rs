//! Developer tool: stage-by-stage timing of the analysis pipeline on
//! the Figure 1 program. Projection details (admission estimate, rounds
//! run, rows used) are fields of the `poly/fm_eliminate` span.

use offload_core::*;
use std::time::Instant;

fn main() {
    let src = offload_lang::examples_src::FIGURE1;
    let t0 = Instant::now();
    let checked = offload_lang::frontend(src).unwrap();
    let module = offload_ir::lower(&checked);
    let pta = offload_pta::PointsTo::analyze(&module);
    let tcfg = offload_tcfg::Tcfg::build(&module, pta.indirect_targets());
    let modref = offload_pta::ModRef::compute(&module, &tcfg, &pta);
    let mut symbolic = offload_symbolic::Symbolic::analyze(&module, pta.indirect_targets());
    let items = ItemTable::build(&tcfg, &pta, &modref, &symbolic);
    eprintln!(
        "frontend+analyses: {:?}; tasks={} items={} edges={}",
        t0.elapsed(),
        tcfg.tasks().len(),
        items.items.len(),
        tcfg.edges().len()
    );
    let t1 = Instant::now();
    let bounds = ParamBounds::uniform(3, 0, None);
    let network = NetBuilder {
        module: &module,
        tcfg: &tcfg,
        modref: &modref,
        symbolic: &mut symbolic,
        items: &items,
        cost: &CostModel::ipaq_testbed(),
        bounds: &bounds,
        validity_model: Default::default(),
    }
    .build();
    eprintln!(
        "netbuild: {:?}; nodes={} arcs={} dims={} space-constraints={}",
        t1.elapsed(),
        network.net.node_count(),
        network.net.arcs().len(),
        network.dims.len(),
        network.param_space.constraints().len()
    );
    let t2 = Instant::now();
    let (snet, _map) = network.net.simplify(&network.param_space);
    eprintln!(
        "simplify: {:?}; nodes={} arcs={}",
        t2.elapsed(),
        snet.node_count(),
        snet.arcs().len()
    );
    let t3 = Instant::now();
    let point: Vec<offload_poly::Rational> = network.param_space.sample().unwrap();
    eprintln!(
        "sample: {:?} point={:?}",
        t3.elapsed(),
        point.iter().map(|r| r.to_f64()).collect::<Vec<_>>()
    );
    let t4 = Instant::now();
    let mf = snet.solve_at(&point).unwrap();
    eprintln!("solve_at: {:?} value={}", t4.elapsed(), mf.value);
    let t5 = Instant::now();
    let region = snet.optimality_region(&mf.source_side, &network.param_space);
    eprintln!(
        "optimality_region: {:?} constraints={}",
        t5.elapsed(),
        region.constraints().len()
    );
}
