//! Reference answers computed in process, for checking every reply.

use fedoq_core::{oracle_answer, Federation};
use fedoq_live::{evaluate, render_conditioned, LiveStrategy};
use fedoq_sim::SystemParams;
use fedoq_wire::render_answer;
use std::collections::{BTreeSet, HashMap};

/// FNV-1a over rendered rows, each terminated by a newline: two replies
/// are equal iff their canonical renderings are (up to hash collision).
pub fn digest(rows: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for &b in row.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Digest of `render_answer(oracle_answer(..))` for `sql` over `fed`, or
/// the error with which `parse_and_bind` refuses the text in process:
/// the serve must refuse such a text with the same message.
pub fn oracle_digest(fed: &Federation, sql: &str) -> Result<u64, String> {
    let query = fed.parse_and_bind(sql).map_err(|e| e.to_string())?;
    Ok(digest(&render_answer(&oracle_answer(fed, &query))))
}

/// Oracle digests of every distinct text, computed on two threads.
pub fn oracle_digests(
    fed: &Federation,
    texts: BTreeSet<&str>,
) -> HashMap<String, Result<u64, String>> {
    let texts: Vec<&str> = texts.into_iter().collect();
    let (left, right) = texts.split_at(texts.len() / 2);
    let run = |part: &[&str]| -> Vec<(String, Result<u64, String>)> {
        part.iter()
            .map(|sql| (sql.to_string(), oracle_digest(fed, sql)))
            .collect()
    };
    std::thread::scope(|s| {
        let other = s.spawn(|| run(right));
        let mut out: HashMap<_, _> = run(left).into_iter().collect();
        out.extend(other.join().expect("oracle thread panicked"));
        out
    })
}

/// Digest of a standing query's snapshot as `fedoq_live::evaluate`
/// computes it in full, or the reason it cannot be computed.
pub fn snapshot_digest(fed: &Federation, sql: &str, strategy: &str) -> Result<u64, String> {
    let strategy = LiveStrategy::parse(strategy).ok_or("unknown live strategy")?;
    let query = fed.parse_and_bind(sql).map_err(|e| e.to_string())?;
    let answer = evaluate(
        fed,
        &query,
        strategy,
        SystemParams::paper_default(),
        &BTreeSet::new(),
    )
    .map_err(|e| e.to_string())?;
    Ok(digest(&render_conditioned(&answer)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedoq_wire::build_workload;
    use fedoq_workload::university::Q1;

    #[test]
    fn digests_separate_rows() {
        let a = digest(&["ab".into(), "c".into()]);
        let b = digest(&["a".into(), "bc".into()]);
        assert_ne!(a, b);
        assert_eq!(a, digest(&["ab".into(), "c".into()]));
    }

    #[test]
    fn oracle_rejects_what_does_not_bind() {
        let (fed, _) = build_workload("university").unwrap();
        assert!(oracle_digest(&fed, Q1).is_ok());
        assert!(oracle_digest(&fed, "SELECT X FROM Nowhere X").is_err());
        let set: BTreeSet<&str> = [Q1, "SELECT X.name FROM Teacher X"].into();
        let digests = oracle_digests(&fed, set);
        assert_eq!(digests.len(), 2);
        assert_eq!(digests[Q1], oracle_digest(&fed, Q1));
        assert!(snapshot_digest(&fed, Q1, "bl").is_ok());
    }
}
