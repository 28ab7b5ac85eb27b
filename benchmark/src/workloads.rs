//! The five workloads: the spec files each one feeds `repro`, generated
//! from the benchmark seed, and the output each one must produce.
//!
//! The inputs are the benchmark's own. The 18 experiment specs and their
//! golden reports are copies kept under `fixtures/`, so the benchmark
//! measures the same work on every commit it is run against.

/// One shipped experiment: its spec and the report `repro` must print
/// for it (the report text plus the blank line `println!` adds).
#[derive(Debug, Clone, Copy)]
pub struct Fixture {
    /// File stem, which is also the experiment's checkpoint namespace.
    pub name: &'static str,
    /// The spec source.
    pub spec: &'static str,
    /// The golden stdout of `repro --spec <name>.toml`.
    pub golden: &'static str,
}

macro_rules! fixture {
    ($name:literal) => {
        Fixture {
            name: $name,
            spec: include_str!(concat!("../fixtures/specs/", $name, ".toml")),
            golden: include_str!(concat!("../fixtures/golden/", $name, ".txt")),
        }
    };
}

/// The 18 experiments of the paper reproduction.
pub const FIXTURES: [Fixture; 18] = [
    fixture!("columbia"),
    fixture!("degraded"),
    fixture!("dgemm-stream"),
    fixture!("fig10"),
    fixture!("fig11"),
    fixture!("fig5"),
    fixture!("fig6"),
    fixture!("fig7"),
    fixture!("fig8"),
    fixture!("fig9"),
    fixture!("stride"),
    fixture!("table1"),
    fixture!("table2"),
    fixture!("table3"),
    fixture!("table4"),
    fixture!("table5"),
    fixture!("table6"),
    fixture!("trace"),
];

/// The fixture named `name`.
///
/// # Panics
/// If there is none: callers name fixtures by literal.
pub fn fixture(name: &str) -> &'static Fixture {
    FIXTURES
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no fixture named {name}"))
}

// The generated specs are sized so that one `repro` invocation takes well
// under a second on the reference host, so a 10-second loop holds a dozen
// or more and their median rides out the stalls of a shared host. There,
// in alternating 10-second windows, 50-point `fullmachine_pdes` runs
// moved the window median by 8% (quartile spread) where 100-point runs,
// three per window, moved it by 12%.

/// `kind = "columbia"` points in the `fullmachine` spec.
pub const FULLMACHINE_POINTS: usize = 100;
/// `kind = "columbia"` points in the `fullmachine_pdes` spec.
pub const PDES_POINTS: usize = 30;
/// `kind = "trace"` points in the `traced` spec.
pub const TRACED_POINTS: usize = 4;

/// SplitMix64: a tiny seeded generator, so the inputs are a pure
/// function of the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// One generated spec file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecFile {
    /// File stem; `repro` names the report's checkpoint namespace after it.
    pub stem: String,
    /// Spec source.
    pub text: String,
}

/// What one run of a workload feeds `repro`, and the stdout it expects
/// when the expectation is known before running (`traced` takes its
/// expectation from a `--jobs 1` reference run instead).
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Spec files, passed to `repro` in this order.
    pub specs: Vec<SpecFile>,
    /// Expected stdout.
    pub expected: Option<String>,
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 18 experiment specs in one run.
    Paper,
    /// 100 full-machine and subsystem `columbia` points.
    FullMachine,
    /// 30 `columbia` points, each simulated on two threads.
    FullMachinePdes,
    /// Four recorded 256-rank exchanges, traced and analyzed.
    Traced,
    /// All 18 specs served from a filled checkpoint store.
    Resume,
}

impl Workload {
    /// Every workload, in the order a full run measures them.
    pub const ALL: [Workload; 5] = [
        Workload::Paper,
        Workload::FullMachine,
        Workload::FullMachinePdes,
        Workload::Traced,
        Workload::Resume,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::FullMachine => "fullmachine",
            Workload::FullMachinePdes => "fullmachine_pdes",
            Workload::Traced => "traced",
            Workload::Resume => "resume",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `repro --jobs`: sweep points in flight. Together with
    /// [`Workload::sim_threads`] this never exceeds two threads, the
    /// core count the bounds were measured on.
    pub fn jobs(self) -> usize {
        match self {
            Workload::FullMachinePdes => 1,
            _ => 2,
        }
    }

    /// `repro --sim-threads`: threads inside each simulation.
    pub fn sim_threads(self) -> usize {
        match self {
            Workload::FullMachinePdes => 2,
            _ => 1,
        }
    }

    /// The inputs of one run, generated from `seed`.
    pub fn inputs(self, seed: u64) -> Inputs {
        match self {
            Workload::Paper | Workload::Resume => paper_inputs(),
            Workload::FullMachine => columbia_inputs(seed, FULLMACHINE_POINTS),
            Workload::FullMachinePdes => columbia_inputs(seed, PDES_POINTS),
            Workload::Traced => Inputs {
                specs: vec![traced_spec(seed)],
                expected: None,
            },
        }
    }
}

/// The 18 fixtures in their shipped order, the order `repro --spec
/// specs/*.toml` runs them in; the expected stdout is their goldens
/// concatenated. The seed does not change them: they are the
/// reproduction as shipped, and the order of the experiments alone moves
/// a run's peak resident set by up to a fifth through the allocator's
/// reuse of memory between experiments.
fn paper_inputs() -> Inputs {
    Inputs {
        specs: FIXTURES
            .iter()
            .map(|f| SpecFile {
                stem: f.name.to_string(),
                text: f.spec.to_string(),
            })
            .collect(),
        expected: Some(FIXTURES.iter().map(|f| f.golden).collect()),
    }
}

/// `points` Columbia points, half the 10,240-rank full machine and half
/// the 2,048-rank subsystem, in seeded order. The spec keeps the shipped
/// `columbia` report header, so every row must equal its golden row.
fn columbia_inputs(seed: u64, points: usize) -> Inputs {
    let mut full: Vec<bool> = (0..points).map(|i| i < points / 2).collect();
    Rng::new(seed).shuffle(&mut full);
    let shipped = fixture("columbia").spec;
    let mut text =
        shipped[..shipped.find("[[sweep]]").expect("columbia spec has sweeps")].to_string();
    for &f in &full {
        let config = if f { "full-machine" } else { "subsystem" };
        text.push_str(&format!(
            "[[sweep]]\nkind = \"columbia\"\nconfig = \"{config}\"\n\n"
        ));
    }
    Inputs {
        specs: vec![SpecFile {
            stem: "columbia".to_string(),
            text,
        }],
        expected: Some(columbia_expected(&full)),
    }
}

/// The report of a `columbia` sweep whose points are full-machine
/// (`true`) or subsystem (`false`), assembled from the golden report's
/// lines: title and header, one golden row per point, the full-machine
/// note once per full-machine point, then the plan note.
pub fn columbia_expected(full: &[bool]) -> String {
    let golden: Vec<&str> = fixture("columbia").golden.lines().collect();
    let find = |prefix: &str| {
        *golden
            .iter()
            .find(|l| l.trim_start().starts_with(prefix))
            .unwrap_or_else(|| panic!("columbia golden has no line starting {prefix:?}"))
    };
    let (full_row, sub_row) = (find("full machine"), find("capability subsystem"));
    let (full_note, plan_note) = (find("note: full machine"), find("note: workload"));
    let mut lines: Vec<&str> = golden[..3].to_vec();
    lines.extend(full.iter().map(|&f| if f { full_row } else { sub_row }));
    lines.extend(full.iter().filter(|&&f| f).map(|_| full_note));
    lines.push(plan_note);
    lines.join("\n") + "\n\n"
}

/// Four traced exchanges: 256 ranks on four InfiniBand-linked nodes, 30
/// iterations, 5% seeded drops, with every point's drop seed drawn from
/// the benchmark seed.
fn traced_spec(seed: u64) -> SpecFile {
    let mut rng = Rng::new(seed);
    let mut text = String::from(
        "schema = \"columbia-spec-v1\"\n\n\
         [report]\n\
         id = \"Traced\"\n\
         title = \"hotspots of imbalanced 256-rank exchanges over 4 nodes (InfiniBand, 5% drops)\"\n\
         headers = [\"rank\", \"compute\", \"comm\", \"wait\", \"total\", \"wait %\"]\n\n",
    );
    for _ in 0..TRACED_POINTS {
        text.push_str(&format!(
            "[[sweep]]\nkind = \"trace\"\nranks = 256\nnodes = 4\ndrop_prob = 0.05\n\
             iters = 30\ntop = 8\nseed = {}\n\n",
            rng.next_u64() >> 33
        ));
    }
    SpecFile {
        stem: "traced".to_string(),
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(text: &str, needle: &str) -> usize {
        text.matches(needle).count()
    }

    #[test]
    fn same_seed_gives_the_same_bytes() {
        for w in Workload::ALL {
            let (a, b) = (w.inputs(7), w.inputs(7));
            assert_eq!(a.specs, b.specs, "{}", w.name());
            assert_eq!(a.expected, b.expected, "{}", w.name());
        }
    }

    #[test]
    fn another_seed_keeps_the_counts_but_changes_the_order() {
        for w in [
            Workload::FullMachine,
            Workload::FullMachinePdes,
            Workload::Traced,
        ] {
            let (a, b) = (w.inputs(1), w.inputs(2));
            assert_ne!(a.specs, b.specs, "{}", w.name());
            assert_eq!(a.specs.len(), b.specs.len(), "{}", w.name());
            let joined = |i: &Inputs| i.specs.iter().map(|s| s.text.clone()).collect::<String>();
            for needle in ["[[sweep]]", "full-machine", "subsystem", "kind = \"trace\""] {
                assert_eq!(
                    count(&joined(&a), needle),
                    count(&joined(&b), needle),
                    "{} {needle}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn columbia_points_split_evenly() {
        let text = &Workload::FullMachine.inputs(3).specs[0].text;
        assert_eq!(
            count(text, "config = \"full-machine\""),
            FULLMACHINE_POINTS / 2
        );
        assert_eq!(
            count(text, "config = \"subsystem\""),
            FULLMACHINE_POINTS / 2
        );
        let text = &Workload::FullMachinePdes.inputs(3).specs[0].text;
        assert_eq!(count(text, "[[sweep]]"), PDES_POINTS);
    }

    #[test]
    fn columbia_expectation_rebuilds_the_golden() {
        assert_eq!(
            columbia_expected(&[true, false]),
            fixture("columbia").golden
        );
    }

    #[test]
    fn paper_expectation_follows_the_spec_order() {
        let inputs = Workload::Paper.inputs(11);
        let want: String = inputs
            .specs
            .iter()
            .map(|s| fixture(&s.stem).golden)
            .collect();
        assert_eq!(inputs.expected.as_deref(), Some(want.as_str()));
        assert_eq!(inputs.specs.len(), FIXTURES.len());
        for w in [Workload::Paper, Workload::Resume] {
            assert_eq!(w.inputs(2).specs, inputs.specs, "{}", w.name());
        }
    }
}
