//! Reopening a result cache must not leak its labels again: each
//! distinct `&'static str` label is interned once per process. This file
//! holds a single test so no other test interns labels concurrently.

use memnet_bench::DiskCache;
use memnet_core::SimConfig;
use memnet_simcore::SimDuration;

#[test]
fn reopening_a_cache_does_not_grow_the_label_interner() {
    let dir = std::env::temp_dir().join(format!("memnet-cache-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut report = SimConfig::builder()
        .workload("mixD")
        .eval_period(SimDuration::from_us(20))
        .seed(7)
        .build()
        .unwrap()
        .run();
    report.workload = "reopen-label \"\\\n\u{1f600}";
    let fresh = (0..50).map(|i| (format!("fp-{i}"), report.clone()));
    DiskCache::open(&dir).unwrap().store(fresh).unwrap();

    let first = DiskCache::open(&dir).unwrap();
    let interned = serde::de::interned_labels();
    for _ in 0..5 {
        let again = DiskCache::open(&dir).unwrap();
        assert_eq!(again.len(), 50);
        let (a, b) = (first.get("fp-0").unwrap(), again.get("fp-49").unwrap());
        assert!(std::ptr::eq(a.workload, b.workload), "every read shares one copy");
    }
    assert_eq!(serde::de::interned_labels(), interned, "reopens interned new labels");
    let _ = std::fs::remove_dir_all(&dir);
}
