//! Local-DP mining end to end: clients perturb their own baskets with padded
//! k-ary randomized response *before* the data leaves the device, the server
//! mines over debiased supports with no release noise, and the exact answer
//! shows what the trust-model switch costs.
//!
//! Run with: `cargo run --release --example ldp_mining`

use privbasis::core::{NoopObserver, QueryContext};
use privbasis::fim::topk::top_k_itemsets;
use privbasis::{Epsilon, ItemSet, LdpChannel, PrivBasis, TransactionDb};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    // The quickstart grocery database: item 0 = bread, 1 = milk, 2 = butter,
    // 3 = beer, 4 = diapers.
    let names = ["bread", "milk", "butter", "beer", "diapers"];
    let mut transactions = Vec::new();
    for i in 0..5_000usize {
        let mut basket = vec![0u32];
        if i % 10 < 8 {
            basket.push(1);
        }
        if i % 10 < 5 {
            basket.push(2);
        }
        if i % 10 < 3 {
            basket.push(3);
        }
        if i % 10 < 2 {
            basket.push(4);
        }
        transactions.push(basket);
    }
    let db = TransactionDb::from_transactions(transactions);
    let n = db.len() as u64;
    let k = 6;

    println!("exact top-{k} (what a non-private miner sees):");
    for f in top_k_itemsets(&db, k, None) {
        println!("  {:<16} support {:>5}", pretty(&f.items, &names), f.count);
    }

    // --- client side -------------------------------------------------------
    // ε_local = 4 over a 5-item universe, padded to 3 slots per report. Each
    // slot keeps its true symbol with probability e^{ε/3}/(e^{ε/3} + 5), so
    // the whole report is 4-LDP by composition — the server never sees a raw
    // basket and needs no trust at all.
    let epsilon_local = 4.0;
    let channel = LdpChannel::new(epsilon_local, 5, 3).expect("valid channel shape");
    let rows: Vec<Vec<u32>> = db.iter().map(|t| t.iter().collect()).collect();
    let mut rng = StdRng::seed_from_u64(7);
    let perturbed = TransactionDb::from_transactions(channel.perturb_rows(&mut rng, &rows));
    println!(
        "\nclients reported {} perturbed baskets at ε_local = {epsilon_local} \
         (universe 5, pad 3)",
        perturbed.len()
    );

    // --- server side -------------------------------------------------------
    // Mine the perturbed table, debiasing every support through the channel's
    // analytic marginals. Mining itself is noiseless (Epsilon::Infinite) and
    // debits no ledger: the privacy was already spent on the client, so the
    // release is deterministic given the reports.
    let context = QueryContext::new(Arc::new(perturbed));
    let debias =
        |items: &[privbasis::fim::Item], observed: f64| channel.debias(observed, n, items.len());
    let out = PrivBasis::with_defaults()
        .run_shared_transformed(
            &mut rng,
            &context,
            k,
            Epsilon::Infinite,
            Some(&debias),
            &NoopObserver,
        )
        .expect("parameters are valid");

    println!("\nLDP top-{k} (mined from debiased supports, no server trust):");
    for (itemset, estimate) in &out.itemsets {
        println!(
            "  {:<16} debiased support {:>8.1}",
            pretty(itemset, &names),
            estimate
        );
    }
    println!(
        "\nλ = {}, basis width {} / length {}; estimates are unbiased but noisier \
         than central DP at the same ε — that gap is the price of distrusting \
         the server (quantify it with `privbasis-cli eval --ldp`).",
        out.lambda,
        out.basis_set.width(),
        out.basis_set.length()
    );
}

fn pretty(itemset: &ItemSet, names: &[&str]) -> String {
    let labels: Vec<&str> = itemset.iter().map(|i| names[i as usize]).collect();
    format!("{{{}}}", labels.join(","))
}
