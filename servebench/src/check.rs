//! The answer oracle and the request books of a run.

use crate::conn::Failure;
use crate::drive::ConnRun;
use crate::gen::{self, Stream};
use phom_core::Engine;
use std::collections::HashMap;

/// Expected answers: an in-process `Engine::submit` per item, encoded
/// with the canonical wire result encoding. Items are keyed by
/// (connection, index): a stream regenerated from the same seed yields
/// the same items at the same indices.
#[derive(Default)]
pub struct Oracle {
    conns: [ConnOracle; 2],
}

#[derive(Default)]
struct ConnOracle {
    engines: HashMap<u64, Engine>,
    answers: HashMap<usize, String>,
}

impl ConnOracle {
    fn answer(&mut self, stream: &Stream, item: usize) -> &String {
        let engines = &mut self.engines;
        self.answers.entry(item).or_insert_with(|| {
            let it = &stream.items[item];
            let inst = &stream.insts[it.inst];
            let engine = engines
                .entry(inst.version)
                .or_insert_with(|| Engine::new(inst.graph.clone()));
            gen::encode_answer(&engine.submit(&[it.req.to_request()])[0])
        })
    }
}

impl Oracle {
    pub fn answer(&mut self, stream: &Stream, conn: usize, item: usize) -> &String {
        self.conns[conn].answer(stream, item)
    }
}

/// Per-phase request books and answer checks.
#[derive(Default)]
pub struct Books {
    pub attempted: u64,
    pub answered: u64,
    pub overloaded: u64,
    pub unavailable: u64,
    pub other: u64,
    pub mismatches: u64,
    pub bound_drift: u64,
    first_mismatch: Option<String>,
    pub first_failure: Option<String>,
    admin_errors: Vec<String>,
}

impl Books {
    pub fn failed(&self) -> u64 {
        self.overloaded + self.unavailable + self.other
    }

    /// Books every request of `runs` and checks every answer, one
    /// thread per connection.
    pub fn add(&mut self, runs: &[ConnRun], oracle: &mut Oracle) {
        let parts: Vec<Books> = std::thread::scope(|s| {
            let handles: Vec<_> = runs
                .iter()
                .zip(oracle.conns.iter_mut())
                .map(|(run, oracle)| s.spawn(move || Books::of_conn(run, oracle)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        });
        for part in parts {
            self.attempted += part.attempted;
            self.answered += part.answered;
            self.overloaded += part.overloaded;
            self.unavailable += part.unavailable;
            self.other += part.other;
            self.mismatches += part.mismatches;
            self.bound_drift += part.bound_drift;
            if self.first_mismatch.is_none() {
                self.first_mismatch = part.first_mismatch;
            }
            if self.first_failure.is_none() {
                self.first_failure = part.first_failure;
            }
            self.admin_errors.extend(part.admin_errors);
        }
    }

    fn of_conn(run: &ConnRun, oracle: &mut ConnOracle) -> Books {
        let mut b = Books::default();
        for rec in &run.recs {
            b.attempted += 1;
            match &rec.failure {
                None => b.answered += 1,
                Some(Failure::Overloaded) => b.overloaded += 1,
                Some(Failure::Unavailable) => b.unavailable += 1,
                Some(Failure::Other(e)) => {
                    b.other += 1;
                    b.first_failure.get_or_insert_with(|| e.clone());
                }
            }
            if let Some(answer) = &rec.answer {
                let expected = oracle.answer(&run.stream, rec.item);
                match gen::compare(answer, expected) {
                    gen::Match::Same => {}
                    gen::Match::BoundDrift => b.bound_drift += 1,
                    gen::Match::Different => {
                        b.mismatches += 1;
                        b.first_mismatch
                            .get_or_insert_with(|| format!("got {answer}, expected {expected}"));
                    }
                }
            }
        }
        b.admin_errors = run
            .admin
            .iter()
            .filter_map(|a| a.error.as_ref().map(|e| format!("{}: {e}", a.kind)))
            .collect();
        b
    }

    /// Problems that make the run fail. `admitted` is the front door's
    /// count of requests it admitted over the same windows: it must be
    /// every attempt that was neither refused (`overloaded`) nor left
    /// unrouted (`member_unavailable`). Other errors may come before or
    /// after admission, so with any of them only bounds apply.
    pub fn problems(&self, admitted: u64) -> Vec<String> {
        let mut out = Vec::new();
        let reached = self.attempted - self.overloaded - self.unavailable;
        let balanced = if self.other == 0 {
            admitted == reached
        } else {
            (self.answered..=reached).contains(&admitted)
        };
        if !balanced {
            out.push(format!(
                "books: front door admitted {admitted}; clients attempted {} = {} answered + \
                 {} overloaded + {} member_unavailable + {} other",
                self.attempted, self.answered, self.overloaded, self.unavailable, self.other
            ));
        }
        if self.mismatches > 0 {
            out.push(format!(
                "{} wrong answers, first: {}",
                self.mismatches,
                self.first_mismatch.as_deref().unwrap_or("")
            ));
        }
        out.extend(self.admin_errors.iter().cloned());
        out
    }
}
