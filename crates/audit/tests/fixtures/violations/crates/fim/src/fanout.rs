//! thread-spawn fixture: a per-query fan-out that starts its own threads.

pub fn count_in_parallel(shares: Vec<Vec<u64>>) -> u64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .map(|share| scope.spawn(move || share.iter().sum::<u64>()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
    })
}

pub fn build_once(rows: Vec<u64>) -> u64 {
    // audit:allow(thread-spawn): runs once per registration, not per query
    std::thread::spawn(move || rows.iter().sum()).join().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_start_threads() {
        assert_eq!(std::thread::spawn(|| 1).join().unwrap(), 1);
    }
}
