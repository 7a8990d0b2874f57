//! End-to-end verification of the paper's equations through the public
//! API: build a hand-crafted instance and check every derived quantity
//! against values computed by hand from Eqs. (2), (3), (5)–(10), (18).

use dmra::core::{CoverageModel, ProblemInstance};
use dmra::econ::PricingConfig;
use dmra::radio::RadioConfig;
use dmra::types::*;

/// One SP, one BS at the origin, one UE at exactly 300 m requesting
/// 4 Mbit/s and 4 CRUs.
fn hand_instance(same_sp: bool) -> ProblemInstance {
    let sps = vec![
        SpSpec::new(SpId::new(0), Money::new(9.0), Money::new(1.0)),
        SpSpec::new(SpId::new(1), Money::new(9.0), Money::new(1.0)),
    ];
    let bss = vec![BsSpec::new(
        BsId::new(0),
        SpId::new(0),
        Point::new(0.0, 0.0),
        vec![Cru::new(100)],
        Hertz::from_mhz(10.0),
        RrbCount::new(55),
    )];
    let ues = vec![UeSpec::new(
        UeId::new(0),
        if same_sp { SpId::new(0) } else { SpId::new(1) },
        Point::new(300.0, 0.0),
        ServiceId::new(0),
        Cru::new(4),
        BitsPerSec::from_mbps(4.0),
        Dbm::new(10.0),
    )];
    ProblemInstance::build(
        sps,
        bss,
        ues,
        ServiceCatalog::new(1),
        PricingConfig::paper_defaults(),
        RadioConfig::paper_defaults(),
        CoverageModel::FixedRadius(Meters::new(300.0)),
    )
    .unwrap()
}

#[test]
fn eq18_eq2_eq3_hand_computation() {
    let inst = hand_instance(true);
    let link = inst.link(UeId::new(0), BsId::new(0)).unwrap();
    // Eq. (18): PL = 140.7 + 36.7·log10(0.3) = 121.512 dB.
    // rx = 10 − 121.512 = −111.512 dBm; noise = −170 dBm
    // ⇒ SINR = 58.488 dB = 10^5.8488 ≈ 7.059e5.
    assert!(
        (link.sinr_linear - 7.059e5).abs() < 0.01e5,
        "sinr = {}",
        link.sinr_linear
    );
    // Eq. (2): e = 180 kHz · log2(1 + SINR) ≈ 180e3 · 19.429 ≈ 3.497 Mbit/s.
    assert!(
        (link.per_rrb_rate.to_mbps() - 3.497).abs() < 0.005,
        "e = {}",
        link.per_rrb_rate
    );
    // Eq. (3): n = ⌈4 / 3.497⌉ = 2.
    assert_eq!(link.n_rrbs, RrbCount::new(2));
    assert!((link.distance.get() - 300.0).abs() < 1e-9);
}

#[test]
fn eq9_eq10_hand_computation() {
    // Eq. (9), same SP: p = b + d^σ·b = 2 + 300^0.01·2 = 2 + 2.11739 =
    // 4.11739 (b = 2, σ = 0.01).
    let inst = hand_instance(true);
    let link = inst.link(UeId::new(0), BsId::new(0)).unwrap();
    assert!(link.same_sp);
    assert!((link.price.get() - 4.11739).abs() < 1e-4, "{}", link.price);

    // Eq. (10), different SPs: p = ι·b + d^σ·b = 4 + 2.11739 = 6.11739.
    let inst = hand_instance(false);
    let link = inst.link(UeId::new(0), BsId::new(0)).unwrap();
    assert!(!link.same_sp);
    assert!((link.price.get() - 6.11739).abs() < 1e-4, "{}", link.price);
}

#[test]
fn eq5_to_eq8_hand_computation() {
    // Serve the UE and recompute W_k by hand:
    // W_k^r = c·m_k = 4·9 = 36; W_k^S = c·m_k^o = 4·1 = 4;
    // W_k^B = c·p = 4·4.11739 = 16.46957; W_k = 36 − 16.46957 − 4 =
    // 15.53043.
    let inst = hand_instance(true);
    let mut alloc = dmra::core::Allocation::all_cloud(1);
    alloc.assign(UeId::new(0), BsId::new(0));
    alloc.validate(&inst).unwrap();
    let report = inst.profit_report(&alloc);
    let w0 = report.per_sp[0];
    assert!((w0.revenue.get() - 36.0).abs() < 1e-9);
    assert!((w0.other_cost.get() - 4.0).abs() < 1e-9);
    assert!((w0.bs_payment.get() - 16.46957).abs() < 1e-3);
    assert!((report.total_profit().get() - 15.53043).abs() < 1e-3);
    // The subscriber belongs to sp0; sp1 earns nothing.
    assert_eq!(report.per_sp[1].profit().get(), 0.0);
}

#[test]
fn constraint_16_margin_check_matches_hand_computation() {
    // m_k − m_k^o = 8 must exceed the worst reachable price. At the
    // 300 m coverage limit the cross-SP price is 6.117 < 8 ⇒ builds.
    let inst = hand_instance(false);
    assert_eq!(inst.n_ues(), 1);
    // Shrink the margin to 6 < 6.117 ⇒ must be rejected.
    let sps = vec![
        SpSpec::new(SpId::new(0), Money::new(7.0), Money::new(1.0)),
        SpSpec::new(SpId::new(1), Money::new(7.0), Money::new(1.0)),
    ];
    let err = ProblemInstance::build(
        sps,
        inst.bss().to_vec(),
        inst.ues().to_vec(),
        inst.catalog(),
        *inst.pricing(),
        *inst.radio(),
        inst.coverage(),
    )
    .unwrap_err();
    assert!(
        matches!(err, Error::UnprofitablePricing { .. }),
        "expected constraint-(16) rejection, got {err}"
    );
}

#[test]
fn max_rrbs_matches_paper_bandwidth_division() {
    // 10 MHz / 180 kHz = 55.55… ⇒ N_i = 55.
    let inst = hand_instance(true);
    assert_eq!(inst.bss()[0].rrb_budget, RrbCount::new(55));
}

#[test]
fn f_u_counts_candidate_bss() {
    let inst = hand_instance(true);
    assert_eq!(inst.f_u(UeId::new(0)), 1);
    assert_eq!(inst.coverage_lists()[0], vec![UeId::new(0)]);
}
