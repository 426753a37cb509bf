//! Campaign fault tolerance, end to end: injected measurement faults are
//! retried with backoff, and points that exhaust their retries are
//! quarantined instead of aborting the build. A single-point measurement
//! reports an injected fault as an error and caches nothing.
//!
//! The fault plan is process-global, so everything lives in one `#[test]`
//! (this file is its own test binary — no other tests share the process).

use emod_compiler::OptConfig;
use emod_core::builder::{BuildConfig, ModelBuilder};
use emod_core::measure::{MeasureError, Measurer, Metric};
use emod_core::model::ModelFamily;
use emod_faults as faults;
use emod_uarch::UarchConfig;
use emod_workloads::{InputSet, Workload};

#[test]
fn injected_faults_are_retried_then_quarantined() {
    let w = Workload::by_name("bzip2").unwrap();

    // Two transient faults: the first design point's retry budget (2
    // retries = 3 attempts) absorbs both, so the campaign completes whole.
    faults::install(faults::FaultPlan::parse("io_error:sim.run:2x", 1).unwrap());
    let mut b =
        ModelBuilder::new(w, InputSet::Train, BuildConfig::quick(3)).with_measure_retries(2);
    let built = b.build(ModelFamily::Linear).unwrap();
    faults::clear();
    assert_eq!(
        built.test.len(),
        12,
        "transient faults must not drop points"
    );
    assert_eq!(built.train.len(), 30);
    assert!(b.quarantined_points().is_empty());

    // Four faults with no retry budget: the first four measurements — test
    // design points, measured first — fail for good and are quarantined;
    // the campaign still completes on the surviving design.
    faults::install(faults::FaultPlan::parse("panic:sim.run:4x", 1).unwrap());
    let mut b =
        ModelBuilder::new(w, InputSet::Train, BuildConfig::quick(5)).with_measure_retries(0);
    let built = b.build(ModelFamily::Linear).unwrap();
    faults::clear();
    assert_eq!(
        built.test.len(),
        8,
        "4 poisoned test points must be quarantined"
    );
    assert_eq!(built.train.len(), 30);
    assert_eq!(b.quarantined_points().len(), 4);
    assert!(built.test_mape.is_finite());

    // A single-point measurement takes the same path: a panic at the probe
    // comes back as an error, nothing is cached, and the next call
    // measures normally.
    let mut m = Measurer::new(w, InputSet::Train, BuildConfig::quick(7).sample);
    let (opt, uarch) = (OptConfig::o2(), UarchConfig::typical());
    faults::install(faults::FaultPlan::parse("panic:sim.run:once", 1).unwrap());
    let first = m.try_measure_configs_metric(&opt, &uarch, Metric::Cycles);
    assert!(
        matches!(first, Err(MeasureError::Panicked(_))),
        "{:?}",
        first
    );
    assert_eq!(m.cached_response_count(), 0, "a failure must not be cached");
    assert_eq!(m.measurement_count(), 0);
    let second = m.try_measure_configs_metric(&opt, &uarch, Metric::Cycles);
    faults::clear();
    assert!(second.as_ref().is_ok_and(|&v| v > 0.0), "{:?}", second);
    assert_eq!(m.cached_response_count(), 1);
    assert_eq!(m.measurement_count(), 1);
}
