//! Durable budget accounting: spend ε against a journaled ledger, "crash", and recover.
//!
//! Run with: `cargo run --release --example durable_ledger`
//!
//! The same machinery backs `privbasis-cli serve --state-dir`: every debit is appended
//! and fsynced to a write-ahead journal *before* the mechanism may draw noise, so a
//! `kill -9` can lose an answer but never un-spend budget. This example drives the
//! registry API directly — no TCP — and shows the state surviving a simulated crash
//! (dropping the registry without any shutdown handshake).

use privbasis::dp::Epsilon;
use privbasis::service::{DataSource, DatasetRegistry, RegisterSpec, StateDir};

fn main() {
    let dir = std::env::temp_dir().join(format!("privbasis-durable-{}", std::process::id()));
    let fimi = dir.join("retail.dat");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(&fimi, "1 2 3\n1 2\n1 2 3\n2 3\n1 2\n3 4\n1 4\n").expect("write dataset");

    // ---- Process one: register, spend, crash (drop without shutdown). ----
    {
        let state = StateDir::open(&dir).expect("open state dir");
        let registry = DatasetRegistry::with_persistence(state).expect("durable registry");
        let entry = registry
            .register_spec(RegisterSpec::central(
                "retail",
                DataSource::File(fimi.to_string_lossy().into_owned()),
                Epsilon::Finite(2.0),
            ))
            .expect("register dataset");
        println!(
            "process 1: registered `retail` (durable = {}), budget ε = 2.0",
            entry.is_durable()
        );
        for _ in 0..3 {
            entry.ledger().unwrap().try_spend(0.5).expect("spend ε");
            entry.record_query();
        }
        println!(
            "process 1: spent ε = {}, remaining = {}, queries = {}",
            entry.ledger().unwrap().spent(),
            entry.ledger().unwrap().remaining(),
            entry.queries_served()
        );
        println!("process 1: crashing without shutdown…");
        // The registry is dropped here with no flush call: the journal was already
        // fsynced record-by-record, so nothing is lost.
    }

    // ---- Process two: recover everything from the state directory alone. ----
    let state = StateDir::open(&dir).expect("reopen state dir");
    let registry = DatasetRegistry::with_persistence(state).expect("durable registry");
    let report = registry.recover().expect("recover from manifest");
    println!("process 2: recovered datasets {:?}", report.loaded);
    let entry = registry.get("retail").expect("dataset is back");
    println!(
        "process 2: spent ε = {}, remaining = {}, queries = {}",
        entry.ledger().unwrap().spent(),
        entry.ledger().unwrap().remaining(),
        entry.queries_served()
    );
    assert_eq!(
        entry.ledger().unwrap().spent(),
        1.5,
        "durable spend must survive"
    );
    assert_eq!(entry.queries_served(), 3);

    // The recovered ledger keeps enforcing the same lifetime budget: one more 0.5
    // fits, then the dataset is exhausted — and *that* survives restarts too.
    entry
        .ledger()
        .unwrap()
        .try_spend(0.5)
        .expect("last affordable spend");
    let refused = entry.ledger().unwrap().try_spend(0.5);
    println!("process 2: further spend after exhaustion → {refused:?}");
    assert!(refused.is_err(), "exhausted must stay exhausted");

    std::fs::remove_dir_all(&dir).expect("clean up scratch dir");
    println!("ok: budget accounting survived the crash");
}
