//! Deltas of the program's own per-processor counters, summed over ranks.

use std::ops::{Add, Sub};

use kali::machine::{ProcStats, RunReport};

/// The `ProcStats` fields the per-layer metrics read, as `f64` so they
/// divide into per-unit rates directly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub msgs: f64,
    pub words: f64,
    pub flops: f64,
    pub mem_words: f64,
    pub busy: f64,
    pub idle: f64,
    pub builds: f64,
    pub replays: f64,
    pub hits: f64,
    pub rollbacks: f64,
    pub evictions: f64,
    pub inspector_s: f64,
    pub exchange_words: f64,
    pub gather_words: f64,
    pub overlap_hidden: f64,
}

impl Counters {
    pub fn of(s: &ProcStats) -> Self {
        Counters {
            msgs: s.msgs_sent as f64,
            words: s.words_sent as f64,
            flops: s.flops,
            mem_words: s.mem_words,
            busy: s.busy,
            idle: s.idle,
            builds: s.inspector_runs as f64,
            replays: s.schedule_replays as f64,
            hits: s.optimistic_hits as f64,
            rollbacks: s.rollbacks as f64,
            evictions: s.schedule_evictions as f64,
            inspector_s: s.inspector_seconds,
            exchange_words: s.exchange_words as f64,
            gather_words: s.gather_words as f64,
            overlap_hidden: s.overlap_hidden,
        }
    }

    /// Whole-run totals over every processor of a report.
    pub fn of_report(r: &RunReport) -> Self {
        r.procs
            .iter()
            .map(|p| Counters::of(&p.stats))
            .fold(Counters::default(), |a, b| a + b)
    }

    pub fn scale(self, k: f64) -> Self {
        self.map2(Counters::default(), |a, _| a * k)
    }

    fn map2(self, o: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        Counters {
            msgs: f(self.msgs, o.msgs),
            words: f(self.words, o.words),
            flops: f(self.flops, o.flops),
            mem_words: f(self.mem_words, o.mem_words),
            busy: f(self.busy, o.busy),
            idle: f(self.idle, o.idle),
            builds: f(self.builds, o.builds),
            replays: f(self.replays, o.replays),
            hits: f(self.hits, o.hits),
            rollbacks: f(self.rollbacks, o.rollbacks),
            evictions: f(self.evictions, o.evictions),
            inspector_s: f(self.inspector_s, o.inspector_s),
            exchange_words: f(self.exchange_words, o.exchange_words),
            gather_words: f(self.gather_words, o.gather_words),
            overlap_hidden: f(self.overlap_hidden, o.overlap_hidden),
        }
    }
}

impl Add for Counters {
    type Output = Counters;
    fn add(self, o: Counters) -> Counters {
        self.map2(o, |a, b| a + b)
    }
}

impl Sub for Counters {
    type Output = Counters;
    fn sub(self, o: Counters) -> Counters {
        self.map2(o, |a, b| a - b)
    }
}
