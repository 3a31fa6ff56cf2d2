//! Answer checking: a 64-bit digest per match set and the table every
//! timed operation is compared against.

use si_parsetree::TreeId;

/// Digest of a sorted match set. Order-sensitive on purpose: every
/// executor returns `(tid, pre)` pairs ascending, so a mis-ordered
/// answer is a wrong answer.
pub fn match_digest(matches: &[(TreeId, u32)]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ matches.len() as u64;
    for &(tid, pre) in matches {
        h = (h.rotate_left(5) ^ (u64::from(tid) << 32 | u64::from(pre)))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h
}

/// Whether an answer to a question asked repeatedly fails: `None` (the
/// engine returned `Err`) or a digest other than the first one given,
/// which `first` remembers.
pub fn differs_from_first(first: &mut Option<u64>, digest: Option<u64>) -> bool {
    match digest {
        Some(d) => *first.get_or_insert(d) != d,
        None => true,
    }
}

/// Expected digest per distinct query plus the failure tally. The
/// expectation is the materializing oracle's digest where the query was
/// in the oracle sample, otherwise the digest of its first execution.
pub struct Checker {
    expected: Vec<Option<u64>>,
    /// Operations checked so far.
    pub attempted: u64,
    /// Operations that errored or answered differently than expected.
    pub failed: u64,
    /// The first failure: `(query index, expected digest, digest given)`.
    pub first_failure: Option<(usize, Option<u64>, Option<u64>)>,
}

impl Checker {
    /// A checker for `queries` distinct queries, none pinned yet.
    pub fn new(queries: usize) -> Self {
        Self {
            expected: vec![None; queries],
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    /// Pins query `idx`'s expected digest without counting an operation
    /// (oracle answers are not operations of the workload).
    pub fn pin(&mut self, idx: usize, digest: u64) {
        self.expected[idx] = Some(digest);
    }

    /// Counts one operation on query `idx`: `None` (the engine returned
    /// `Err`) or a digest that disagrees with the pinned one fails it.
    pub fn check(&mut self, idx: usize, digest: Option<u64>) {
        self.attempted += 1;
        match (digest, self.expected[idx]) {
            (Some(d), None) => self.expected[idx] = Some(d),
            (Some(d), Some(e)) if d == e => {}
            (given, expected) => {
                self.failed += 1;
                self.first_failure.get_or_insert((idx, expected, given));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_sets_lengths_and_orders() {
        let a = [(1, 2), (3, 4)];
        assert_eq!(match_digest(&a), match_digest(&a));
        assert_ne!(match_digest(&a), match_digest(&[(3, 4), (1, 2)]));
        assert_ne!(match_digest(&a), match_digest(&[(1, 2)]));
        assert_ne!(match_digest(&[]), match_digest(&[(0, 0)]));
    }

    #[test]
    fn repeated_answers_must_match_the_first() {
        let mut first = None;
        assert!(!differs_from_first(&mut first, Some(4)));
        assert!(!differs_from_first(&mut first, Some(4)));
        assert!(differs_from_first(&mut first, Some(5)));
        assert!(differs_from_first(&mut first, None));
        assert!(differs_from_first(&mut None, None));
    }

    #[test]
    fn checker_counts_errors_and_disagreements() {
        let mut c = Checker::new(2);
        c.pin(0, 10);
        c.check(0, Some(10));
        c.check(0, Some(11)); // differs from the oracle
        c.check(1, Some(5)); // first execution pins
        c.check(1, Some(5));
        c.check(1, Some(6)); // differs from the earlier execution
        c.check(1, None); // engine error
        assert_eq!((c.attempted, c.failed), (6, 3));
        assert_eq!(c.first_failure, Some((0, Some(10), Some(11))));
    }
}
