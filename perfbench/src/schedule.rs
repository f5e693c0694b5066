//! Open-loop arrival schedules. A schedule is a pure function of the
//! workload seed, the run length and the traffic mix, so two runs with one
//! seed offer the program the same jobs at the same offsets.

use megasw_seq::rng::ChaCha8Rng;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// One short single-pair job, high priority.
    Small,
    /// A many-pair batch job.
    Batch,
    /// A long single-pair job at low priority that blocks the executor.
    Long,
}

impl JobClass {
    pub fn priority(self) -> i64 {
        match self {
            JobClass::Small => 2,
            JobClass::Batch => 1,
            JobClass::Long => 0,
        }
    }
}

/// One scheduled submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Offset from the start of the measured window.
    pub due: Duration,
    pub class: JobClass,
    /// Index into the workload's pool of inputs of this class.
    pub item: usize,
    /// Send the sequences as FASTA text instead of raw bases.
    pub fasta: bool,
}

/// A traffic mix: Poisson small jobs plus periodic batch and long jobs.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub small_per_s: f64,
    pub small_items: usize,
    pub batch_every: Duration,
    pub batch_items: usize,
    /// `None` sends no long jobs.
    pub long_every: Option<Duration>,
    pub long_items: usize,
}

/// Every arrival due in `[0, span)`, sorted by due time.
pub fn open_loop(seed: u64, span: Duration, mix: &Mix) -> Vec<Arrival> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0BE7_5C4E_D01E);
    let end = span.as_secs_f64();
    let mut due: Vec<(f64, JobClass)> = Vec::new();

    // Independent users: a Poisson process at the fixed rate, conditioned
    // on its expected count — arrival times are uniform over the span —
    // so every seed offers the same number of jobs.
    let small = (mix.small_per_s * end).round() as usize;
    due.extend((0..small).map(|_| (end * rng.gen::<f64>(), JobClass::Small)));
    for (class, every) in [
        (JobClass::Batch, Some(mix.batch_every)),
        (JobClass::Long, mix.long_every),
    ] {
        let Some(every) = every else { continue };
        let every = every.as_secs_f64();
        // A seeded phase in the first period, so the first one does not
        // coincide with the first small job on every seed.
        let mut t = every * rng.gen::<f64>();
        while t < end {
            due.push((t, class));
            t += every;
        }
    }
    due.sort_by(|x, y| x.0.total_cmp(&y.0));

    // Each class walks its pool round-robin from a seeded start, so every
    // pool item is sent about equally often whatever the seed.
    let pools = [
        (JobClass::Small, mix.small_items),
        (JobClass::Batch, mix.batch_items),
        (JobClass::Long, mix.long_items),
    ];
    let mut next: Vec<usize> = pools
        .iter()
        .map(|&(_, n)| rng.gen_range(0..n.max(1)))
        .collect();
    due.into_iter()
        .map(|(t, class)| {
            let k = pools
                .iter()
                .position(|&(c, _)| c == class)
                .expect("every class has a pool");
            let item = next[k] % pools[k].1;
            next[k] += 1;
            Arrival {
                due: Duration::from_secs_f64(t),
                class,
                item,
                fasta: rng.gen::<bool>(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        small_per_s: 100.0,
        small_items: 16,
        batch_every: Duration::from_millis(500),
        batch_items: 4,
        long_every: Some(Duration::from_secs(4)),
        long_items: 1,
    };

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let span = Duration::from_secs(10);
        let a = open_loop(7, span, &MIX);
        assert_eq!(a, open_loop(7, span, &MIX), "same seed, same schedule");
        assert_ne!(
            a,
            open_loop(8, span, &MIX),
            "another seed, another schedule"
        );
    }

    #[test]
    fn schedule_is_sorted_inside_the_span_at_the_mix_rates() {
        let span = Duration::from_secs(20);
        let s = open_loop(3, span, &MIX);
        assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(s.iter().all(|a| a.due < span));
        let count = |c: JobClass| s.iter().filter(|a| a.class == c).count();
        assert_eq!(count(JobClass::Small), 2000, "100/s for 20 s");
        assert_eq!(count(JobClass::Batch), 40);
        assert_eq!(count(JobClass::Long), 5);
        assert!(s.iter().all(|a| match a.class {
            JobClass::Small => a.item < 16,
            JobClass::Batch => a.item < 4,
            JobClass::Long => a.item < 1,
        }));
        let small_zero = s
            .iter()
            .filter(|a| a.class == JobClass::Small && a.item == 0)
            .count();
        assert!(
            (125..=126).contains(&small_zero),
            "round-robin over 16 items"
        );
        let fasta = s.iter().filter(|a| a.fasta).count();
        assert!(fasta > s.len() / 3 && fasta < 2 * s.len() / 3);
        let no_long = Mix {
            long_every: None,
            ..MIX
        };
        assert!(open_loop(3, span, &no_long)
            .iter()
            .all(|a| a.class != JobClass::Long));
    }
}
