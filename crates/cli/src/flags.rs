//! The flag table: every `zerosum` subcommand's flags as data, and the
//! one parser that reads argv against it.
//!
//! A [`Command`] row lists its [`Flag`]s — name, metavar (whether a
//! value follows), kind, default, help line. [`parse_flags`] is the
//! only loop over argv in the workspace: it checks every token against
//! the row, so an unknown flag, a flag missing its value and a value
//! its kind does not accept are errors before any command body runs.
//! The `usage:` line, the `--help` text and the subcommand list are
//! generated from the same rows. Nothing here prints; `main.rs` does.

use std::fmt::{self, Write as _};
use std::str::FromStr;

use Kind::{OneOf, Text};

/// What a flag's value must be.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Any text.
    Text,
    /// One of the listed names.
    OneOf(fn() -> Vec<&'static str>),
    /// Whatever the check accepts: a number of some type.
    Num(fn(&str) -> bool),
}

fn is<T: FromStr>(value: &str) -> bool {
    value.parse::<T>().is_ok()
}

const U32: Kind = Kind::Num(is::<u32>);
const U64: Kind = Kind::Num(is::<u64>);
const USIZE: Kind = Kind::Num(is::<usize>);
const F64: Kind = Kind::Num(is::<f64>);

impl Kind {
    fn accepts(self, value: &str) -> bool {
        match self {
            Text => true,
            OneOf(names) => names().contains(&value),
            Kind::Num(check) => check(value),
        }
    }
}

/// One flag of one command.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed (`--scale`).
    pub name: &'static str,
    /// The value that follows; `""` for a switch, which takes none.
    pub metavar: &'static str,
    /// What the value must be (a switch has none to check).
    pub kind: Kind,
    /// The value when the flag is absent; `""` = none.
    pub default: &'static str,
    /// One help line.
    pub help: &'static str,
}

/// One row of the table: the wrapper itself or a subcommand.
#[derive(Debug)]
pub struct Command {
    /// Subcommand name; `""` for the wrapper.
    pub name: &'static str,
    /// One line saying what it does.
    pub about: &'static str,
    /// Its flags, in usage order.
    pub flags: &'static [Flag],
    /// What may follow the flags (`""` = nothing may).
    pub trailing: &'static str,
}

const fn flag(
    name: &'static str,
    metavar: &'static str,
    kind: Kind,
    default: &'static str,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        metavar,
        kind,
        default,
        help,
    }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    flag(name, "", Text, "", help)
}

const fn cmd(name: &'static str, about: &'static str, flags: &'static [Flag]) -> Command {
    Command {
        name,
        about,
        flags,
        trailing: "",
    }
}

fn scenarios() -> Vec<&'static str> {
    zerosum_analyze::SCENARIOS.iter().map(|s| s.0).collect()
}

fn artifacts() -> Vec<&'static str> {
    let rows = zerosum_experiments::artifacts::ARTIFACTS.iter();
    rows.map(|a| a.name).collect()
}

fn backends() -> Vec<&'static str> {
    vec!["sim", "fork", "fork-exec"]
}

/// The wrapper: `zerosum [flags] -- <command>`.
pub static WRAPPER: Command = Command {
    name: "",
    about: "launch a command and monitor it from outside through /proc",
    flags: &[
        flag("--period-ms", "N", U64, "1000", "sampling period"),
        flag("--log-dir", "DIR", Text, "", "write the per-process log"),
        flag("--rank", "N", U32, "", "MPI rank (else from the env)"),
        flag("--monitor-hwt", "N", U32, "", "pin the monitor to this HWT"),
        switch("--verbose-ranks", "print the report on every rank"),
        switch("--heartbeat", "print a liveness line every period"),
    ],
    trailing: "-- <command> [args…]",
};

const SCALE: &str = "workload divisor (larger = quicker)";
const SEED: &str = "base seed";
const ROUNDS: &str = "rounds to drive";
const PERIOD: &str = "round period";

/// Every subcommand, in the order `zerosum --help` lists them.
pub static SUBCOMMANDS: [Command; 9] = [
    cmd(
        "analyze",
        "run the paper scenarios under the trace checker (scheduler invariants)",
        &[
            flag("--scale", "N", U32, "100", SCALE),
            flag("--seed", "N", U64, "1", SEED),
            flag("--scenario", "NAME", OneOf(scenarios), "", "check only it"),
        ],
    ),
    cmd(
        "chaos",
        "Tables 1-3 under seeded procfs fault schedules, plus the abnormal-exit drill",
        &[
            flag("--scale", "N", U32, "150", SCALE),
            flag("--schedules", "N", USIZE, "21", "fault schedules to run"),
            flag("--seed", "N", U64, "50336", SEED),
        ],
    ),
    cmd(
        "cluster-chaos",
        "seeded node-fault plans, again over lossy links; TCP smoke; bounded-memory drill",
        &[
            flag("--nodes", "N", USIZE, "4", "nodes in the allocation"),
            flag("--rounds", "N", U32, "24", ROUNDS),
            flag("--schedules", "N", USIZE, "20", "plans per suite"),
            flag("--seed", "N", U64, "41232", SEED),
            flag("--drill-rounds", "N", U64, "1000000", "memory drill rounds"),
        ],
    ),
    cmd(
        "churn",
        "open-system fork/exec storms against the lifecycle path (DESIGN.md §14)",
        &[
            flag("--backend", "NAME", OneOf(backends), "sim", "what to storm"),
            flag("--schedules", "N", USIZE, "20", "sim: schedules to run"),
            flag("--seed", "N", U64, "50353", SEED),
            flag("--rate", "N", F64, "50", "real backends: arrivals per s"),
            switch("--ramp", "real backends: ramp the arrival rate 1x/2x/4x"),
            flag("--duration-ms", "N", U64, "2000", "real backends: length"),
            switch("--probe", "only test that children can spawn (exit 0/3)"),
        ],
    ),
    cmd(
        "collect",
        "collector daemon: accept `zerosum stream` agents over TCP (DESIGN.md §12)",
        &[
            flag("--listen", "ADDR", Text, "127.0.0.1:0", "address to bind"),
            switch("--probe", "only bind, then exit (0 works, 3 forbidden)"),
            flag("--port-file", "F", Text, "", "write the bound address here"),
            flag("--nodes", "N", USIZE, "1", "agents to wait for"),
            flag("--rounds", "N", U32, "10", ROUNDS),
            flag("--period-ms", "N", U64, "100", PERIOD),
        ],
    ),
    cmd(
        "stream",
        "node agent: stream a simulated node's monitoring frames to `zerosum collect`",
        &[
            flag("--connect", "ADDR", Text, "", "collector address, required"),
            flag("--node", "NAME", Text, "stream0000", "this node's hostname"),
            flag("--rank", "N", U32, "0", "rank of the simulated process"),
            flag("--rounds", "N", U32, "10", ROUNDS),
            flag("--period-ms", "N", U64, "100", PERIOD),
            flag("--seed", "N", U64, "42", SEED),
        ],
    ),
    cmd(
        "audit",
        "static audit: lock order, panic reach, effects, repo rules (DESIGN.md §10-§11)",
        &[
            switch("--json", "print the report as JSON"),
            switch("--explain", "print each finding's witness call chain"),
            switch("--drill", "also run the lock sanitizer drill"),
            flag("--root", "DIR", Text, "", "tree to audit (else above cwd)"),
        ],
    ),
    cmd(
        "shard-diff",
        "N shards vs 1 shard bit-identical over seeded scenarios; shard chaos isolation",
        &[flag("--seeds", "N", U64, "20", "scenario seeds 0..N")],
    ),
    cmd(
        "run-all",
        "regenerate the paper's artifacts: the compact sweep, or the rows --only names",
        &[
            flag(
                "--only",
                "NAME",
                OneOf(artifacts),
                "",
                "render it (repeatable)",
            ),
            flag("--scale", "N", U32, "", "workload divisor (else row's own)"),
            flag("--seed", "N", U64, "42", SEED),
        ],
    ),
];

/// Picks the table row for an argv: a first token naming a subcommand
/// selects it (and is consumed); anything else is the wrapper's.
pub fn route(args: &[String]) -> (&'static Command, &[String]) {
    if let Some((first, rest)) = args.split_first() {
        if let Some(cmd) = SUBCOMMANDS.iter().find(|c| c.name == first) {
            return (cmd, rest);
        }
    }
    (&WRAPPER, args)
}

/// Why an argv does not fit its command's flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagError {
    /// The flag (or stray token) at fault.
    pub flag: String,
    /// What is wrong with it, `flag` included.
    pub why: String,
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.why)
    }
}

/// An argv read against a [`Command`].
#[derive(Debug)]
pub struct Parsed<'a> {
    /// The row it was read against.
    pub command: &'static Command,
    /// `--help` or `-h` was among the flags.
    pub help: bool,
    /// What followed the flags (only where the command allows it).
    pub trailing: &'a [String],
    /// `(flag, value)` in argv order; a switch holds `""`.
    seen: Vec<(&'static str, &'a str)>,
}

/// Reads `args` against `command`'s flags.
pub fn parse_flags<'a>(
    command: &'static Command,
    args: &'a [String],
) -> Result<Parsed<'a>, FlagError> {
    let mut parsed = Parsed {
        command,
        help: false,
        trailing: &[],
        seen: Vec::new(),
    };
    let mut at = 0;
    while let Some(token) = args.get(at) {
        at += 1;
        if token == "--help" || token == "-h" {
            parsed.help = true;
            return Ok(parsed);
        }
        let wrong = |why: String| FlagError {
            flag: token.clone(),
            why,
        };
        let Some(flag) = command.flags.iter().find(|f| f.name == token) else {
            // `--`, or the first token that is no flag, starts what
            // trails the flags — where the command lets anything trail.
            let may_trail = !command.trailing.is_empty();
            parsed.trailing = match token.as_str() {
                "--" if may_trail => &args[at..],
                word if may_trail && !word.starts_with("--") => &args[at - 1..],
                _ => return Err(wrong(format!("unknown flag {token:?}"))),
            };
            return Ok(parsed);
        };
        if flag.metavar.is_empty() {
            parsed.seen.push((flag.name, ""));
            continue;
        }
        let Some(value) = args.get(at) else {
            return Err(wrong(format!("{token} requires a value")));
        };
        at += 1;
        if !flag.kind.accepts(value) {
            return Err(wrong(match flag.kind {
                OneOf(names) => {
                    let names = names().join(" ");
                    format!("{token}: unknown name {value:?} (one of: {names})")
                }
                _ => format!("{token}: invalid value {value:?}"),
            }));
        }
        parsed.seen.push((flag.name, value));
    }
    Ok(parsed)
}

impl<'a> Parsed<'a> {
    /// Whether the flag was on the command line.
    pub fn given(&self, flag: &str) -> bool {
        self.seen.iter().any(|(name, _)| *name == flag)
    }

    /// Every value given for the flag, in argv order.
    pub fn all_given(&self, flag: &str) -> Vec<&'a str> {
        let given = self.seen.iter().filter(|(name, _)| *name == flag);
        given.map(|&(_, value)| value).collect()
    }

    /// The flag's last given value, else its default; `None` when it
    /// has neither.
    pub fn text_of(&self, flag: &str) -> Option<&'a str> {
        let default = self.command.flags.iter().find(|f| f.name == flag)?.default;
        let last = self.seen.iter().rev().find(|(name, _)| *name == flag);
        let value = last.map_or(default, |&(_, value)| value);
        (!value.is_empty()).then_some(value)
    }

    /// The flag's value (or default) as a number, `None` when it has
    /// neither. The table's kinds were checked at parse time, so this
    /// panics only where the caller's type and the row's kind disagree.
    pub fn number_opt<T: FromStr>(&self, flag: &str) -> Option<T> {
        let text = self.text_of(flag)?;
        let n = text.parse().ok();
        assert!(n.is_some(), "flag table: {flag} holds {text:?}");
        n
    }

    /// [`Parsed::number_opt`] for a flag the table gives a default.
    pub fn number<T: FromStr>(&self, flag: &str) -> T {
        self.number_opt(flag)
            .unwrap_or_else(|| panic!("flag table: {flag} has no default"))
    }
}

/// `zerosum <name> [--flag METAVAR]… <trailing>`.
pub fn usage_line(command: &Command) -> String {
    let mut out = String::from("zerosum");
    if !command.name.is_empty() {
        let _ = write!(out, " {}", command.name);
    }
    for f in command.flags {
        let _ = write!(out, " [{}", f.name);
        if !f.metavar.is_empty() {
            let _ = write!(out, " {}", f.metavar);
        }
        out.push(']');
    }
    if !command.trailing.is_empty() {
        let _ = write!(out, " {}", command.trailing);
    }
    out
}

/// The `--help` text of one command: usage, what it does, one line per
/// flag; for the wrapper also one line per subcommand.
pub fn help_text(command: &Command) -> String {
    let mut out = format!("usage: {}\n{}\n", usage_line(command), command.about);
    for f in command.flags {
        let left = format!("{} {}", f.name, f.metavar);
        let _ = write!(out, "  {left:<28} {}", f.help);
        if let Kind::OneOf(names) = f.kind {
            let _ = write!(out, ": {}", names().join(" "));
        }
        if !f.default.is_empty() {
            let _ = write!(out, " (default {})", f.default);
        }
        out.push('\n');
    }
    if command.name.is_empty() {
        out.push_str("subcommands (`zerosum <name> --help` for each):\n");
        for c in &SUBCOMMANDS {
            let _ = writeln!(out, "  {:<14} {}", c.name, c.about);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn every_command() -> impl Iterator<Item = &'static Command> {
        SUBCOMMANDS.iter().chain(std::iter::once(&WRAPPER))
    }

    fn row(name: &str) -> &'static Command {
        SUBCOMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    #[test]
    fn the_table_rejects_what_it_does_not_list() {
        for cmd in every_command() {
            let err = parse_flags(cmd, &argv(&["--no-such-flag"])).unwrap_err();
            assert_eq!(err.flag, "--no-such-flag", "{}: {err}", cmd.name);
            let help = help_text(cmd);
            for f in cmd.flags {
                assert!(help.contains(f.name), "{}: help lacks {}", cmd.name, f.name);
                assert!(
                    f.default.is_empty() || f.kind.accepts(f.default),
                    "{}",
                    f.name
                );
                if f.metavar.is_empty() {
                    assert!(parse_flags(cmd, &argv(&[f.name])).unwrap().given(f.name));
                    continue;
                }
                // A value flag at the end of argv.
                let err = parse_flags(cmd, &argv(&[f.name])).unwrap_err();
                assert_eq!(err.flag, f.name, "{}", cmd.name);
                assert!(err.why.contains("requires a value"), "{}: {err}", cmd.name);
                // A value its kind does not accept.
                if !matches!(f.kind, Text) {
                    let err = parse_flags(cmd, &argv(&[f.name, "abc"])).unwrap_err();
                    assert_eq!(err.flag, f.name, "{}: {err}", cmd.name);
                    assert!(err.why.contains("\"abc\""), "{}: {err}", cmd.name);
                }
            }
            assert!(parse_flags(cmd, &argv(&["--help"])).unwrap().help);
            assert!(parse_flags(cmd, &argv(&["-h"])).unwrap().help);
        }
    }

    /// The defaults are the ones every subcommand had before the table.
    #[test]
    fn defaults_are_the_published_ones() {
        let of = |name: &str| parse_flags(row(name), &[]).unwrap();
        let p = of("chaos");
        assert_eq!(
            (
                p.number::<u32>("--scale"),
                p.number::<usize>("--schedules"),
                p.number::<u64>("--seed")
            ),
            (150, 21, 0xC4A0)
        );
        let p = of("cluster-chaos");
        assert_eq!(
            (
                p.number::<usize>("--nodes"),
                p.number::<u32>("--rounds"),
                p.number::<usize>("--schedules")
            ),
            (4, 24, 20)
        );
        assert_eq!(
            (p.number::<u64>("--seed"), p.number::<u64>("--drill-rounds")),
            (0xA110, 1_000_000)
        );
        let p = of("churn");
        assert_eq!(p.text_of("--backend"), Some("sim"));
        assert_eq!(
            (p.number::<usize>("--schedules"), p.number::<u64>("--seed")),
            (20, 0xC4B1)
        );
        assert_eq!(
            (p.number::<f64>("--rate"), p.number::<u64>("--duration-ms")),
            (50.0, 2_000)
        );
        assert!(!p.given("--ramp") && !p.given("--probe"));
        let p = of("collect");
        assert_eq!(p.text_of("--listen"), Some("127.0.0.1:0"));
        assert_eq!(
            (
                p.number::<usize>("--nodes"),
                p.number::<u32>("--rounds"),
                p.number::<u64>("--period-ms")
            ),
            (1, 10, 100)
        );
        assert_eq!(p.text_of("--port-file"), None);
        let p = of("stream");
        assert_eq!(
            (p.text_of("--connect"), p.text_of("--node")),
            (None, Some("stream0000"))
        );
        assert_eq!(
            (p.number::<u32>("--rank"), p.number::<u32>("--rounds")),
            (0, 10)
        );
        assert_eq!(
            (p.number::<u64>("--period-ms"), p.number::<u64>("--seed")),
            (100, 42)
        );
        let p = of("analyze");
        assert_eq!(
            (p.number::<u32>("--scale"), p.number::<u64>("--seed")),
            (100, 1)
        );
        assert_eq!(p.text_of("--scenario"), None);
        assert_eq!(of("shard-diff").number::<u64>("--seeds"), 20);
        let p = of("run-all");
        assert_eq!(
            (p.number_opt::<u32>("--scale"), p.number::<u64>("--seed")),
            (None, 42)
        );
    }

    #[test]
    fn values_are_read_last_wins_and_lists() {
        let args = argv(&["audit", "--root", "/tmp/tree", "--json"]);
        let (cmd, rest) = route(&args);
        assert_eq!((cmd.name, rest.len()), ("audit", 3));
        let p = parse_flags(cmd, rest).unwrap();
        assert_eq!(p.text_of("--root"), Some("/tmp/tree"));
        assert!(p.given("--json") && !p.given("--explain"));

        let args = argv(&[
            "--scale", "7", "--only", "fig5", "--scale", "9", "--only", "table1",
        ]);
        let p = parse_flags(row("run-all"), &args).unwrap();
        assert_eq!(p.number::<u32>("--scale"), 9);
        assert_eq!(p.all_given("--only"), ["fig5", "table1"]);

        let err = parse_flags(row("run-all"), &argv(&["--only", "nosuch"])).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("--only") && text.contains("nosuch"), "{text}");
        assert!(
            text.contains("listing1") && text.contains("diagrams"),
            "{text}"
        );
        // A subcommand takes nothing but flags.
        let err = parse_flags(row("run-all"), &argv(&["fig5"])).unwrap_err();
        assert_eq!(err.why, "unknown flag \"fig5\"");
    }

    #[test]
    fn help_lists_every_subcommand_once() {
        let help = help_text(&WRAPPER);
        assert!(
            help.starts_with("usage: zerosum [--period-ms N] [--log-dir DIR]"),
            "{help}"
        );
        assert!(
            help.contains("[--heartbeat] -- <command> [args…]\n"),
            "{help}"
        );
        for c in &SUBCOMMANDS {
            assert_eq!(
                help.matches(&format!("\n  {:<14} ", c.name)).count(),
                1,
                "{}",
                c.name
            );
            assert!(usage_line(c).starts_with(&format!("zerosum {} [", c.name)));
        }
        assert!(usage_line(row("audit")).ends_with("[--drill] [--root DIR]"));
    }
}
