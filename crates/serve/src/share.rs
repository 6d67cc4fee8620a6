//! Whole-response single-flight by canonical plan fingerprint.
//!
//! The daemon's outermost sharing tier: when a request's prepared plan
//! has the same fingerprint as a render already in flight, the request
//! does not run at all — it follows the running one and receives the
//! same `.svc` bytes (or the same error). Equal fingerprints imply
//! byte-identical output over identical sources, so coalescing is
//! invisible to clients except in `ExecStats.cache.inflight_hits`.
//!
//! The registry is a [`SingleFlight`](v2v_exec::SingleFlight) over
//! fingerprints carrying a [`QueryOutcome`] — the same primitive as
//! [`FragmentFlight`](v2v_exec::FragmentFlight) one layer down.
//! Leaders join **before** entering the admission gate, so duplicates
//! of a queued request coalesce too, and a burst of K identical
//! queries consumes one admission slot instead of K.

use std::sync::Arc;
use v2v_exec::ExecStats;

/// The error half of a shared outcome: enough to rebuild the HTTP
/// response for every follower.
#[derive(Clone, Debug)]
pub struct SharedError {
    /// HTTP status the leader's run mapped to.
    pub status: u16,
    /// Error-taxonomy kind name (`not_found`, `overloaded`, …).
    pub kind: String,
    /// Human-readable message.
    pub message: String,
}

/// What a leader hands its followers: the serialized `.svc` bytes plus
/// the leader's stats, or the error the leader hit (including a 429 —
/// a rejected leader rejects its whole cohort, which is exactly the
/// back-pressure the gate intended).
pub type QueryOutcome = Result<(Arc<Vec<u8>>, ExecStats), SharedError>;

/// What a follower answers: the leader's published outcome, or a 500
/// `internal` when the leader released the flight without publishing
/// (it panicked or returned early).
pub fn follower_outcome(published: Option<QueryOutcome>) -> QueryOutcome {
    published.unwrap_or_else(|| {
        Err(SharedError {
            status: 500,
            kind: "internal".into(),
            message: "in-flight render aborted".into(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_exec::{FlightGuard, Join, SingleFlight};

    /// Leads a flight, parks one follower on it, ends the flight with
    /// `finish`, and returns the follower's error and the share count.
    fn follower_error(
        finish: impl FnOnce(FlightGuard<'_, u64, QueryOutcome>),
    ) -> (SharedError, u64) {
        let reg = SingleFlight::<u64, QueryOutcome>::new();
        let answer = std::thread::scope(|scope| {
            let Join::Leader(guard) = reg.join(1) else {
                panic!("first joiner leads");
            };
            let follower = scope.spawn(|| match reg.join(1) {
                Join::Follower(published) => follower_outcome(published),
                Join::Leader(_) => panic!("must follow while the key is led"),
            });
            while reg.waiting() == 0 {
                std::thread::yield_now();
            }
            finish(guard);
            follower.join().unwrap()
        });
        assert!(matches!(reg.join(1), Join::Leader(_)), "the flight drained");
        match answer {
            Err(e) => (e, reg.shared()),
            Ok(_) => panic!("follower must see an error"),
        }
    }

    #[test]
    fn errors_fan_out_to_followers() {
        let (e, shared) = follower_error(|guard| {
            guard.publish(Err(SharedError {
                status: 404,
                kind: "not_found".into(),
                message: "missing".into(),
            }))
        });
        assert_eq!((e.status, shared), (404, 1));
    }

    #[test]
    fn dropped_leader_answers_followers_internal_error() {
        let (e, shared) = follower_error(|guard| drop(guard));
        assert_eq!((e.status, e.kind.as_str(), shared), (500, "internal", 0));
    }
}
