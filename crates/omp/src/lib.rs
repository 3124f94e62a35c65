//! # zerosum-omp
//!
//! The OpenMP-runtime substrate for ZeroSum-rs.
//!
//! The paper's experiments are driven by three OpenMP environment
//! variables (`OMP_NUM_THREADS`, `OMP_PROC_BIND`, `OMP_PLACES`) and by the
//! OMPT tool interface through which ZeroSum learns which LWPs are OpenMP
//! threads (§3.1.2). This crate implements:
//!
//! * [`mod@env`] — environment parsing with OpenMP 5.x semantics.
//! * [`bind`] — the places/proc-bind affinity algorithm (`spread`,
//!   `close`, `master`, unbound).
//! * [`team`] — launching a thread team into the scheduler simulation.
//! * [`ompt`] — the tool-callback registry (`thread-begin`).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![warn(missing_docs)]

pub mod bind;
pub mod env;
pub mod ompt;
pub mod team;

pub use bind::{bind_team, expand_places, TeamBinding};
pub use env::{EnvError, OmpEnv, PlacesSpec, ProcBind};
pub use ompt::{OmpThreadType, OmptRegistry, ThreadBegin};
pub use team::{launch_team_process, TeamInfo};

#[cfg(test)]
#[path = "../../../tests/seeded/mod.rs"]
mod seeded;

/// Binding laws over every policy × places pair and seeded masks.
#[cfg(test)]
mod properties {
    use crate::bind::bind_team;
    use crate::env::{OmpEnv, PlacesSpec, ProcBind};
    use crate::seeded::Seeded;
    use zerosum_topology::{presets, CpuSet};

    /// Every thread's mask is a non-empty subset of the process mask,
    /// for every policy/places pair at seeded team sizes and masks.
    #[test]
    fn binding_stays_within_the_process_mask() {
        let mut g = Seeded::new(0x03b_0001);
        let topo = presets::frontier();
        let binds = [
            ProcBind::False,
            ProcBind::True,
            ProcBind::Master,
            ProcBind::Close,
            ProcBind::Spread,
        ];
        let all_places = [
            PlacesSpec::Undefined,
            PlacesSpec::Threads,
            PlacesSpec::Cores,
            PlacesSpec::Sockets,
            PlacesSpec::NumaDomains,
            PlacesSpec::LlCaches,
        ];
        for proc_bind in binds {
            for places in &all_places {
                for _ in 0..8 {
                    let team = g.in_range(1, 16) as usize;
                    let lo = g.in_range(0, 30) as u32;
                    let mask = CpuSet::range(lo, lo + g.in_range(1, 40) as u32);
                    let env = OmpEnv {
                        num_threads: Some(team),
                        proc_bind,
                        places: places.clone(),
                    };
                    let b = bind_team(&topo, &env, &mask, team);
                    let case = format!("{proc_bind:?}/{places:?}, team {team}, mask {mask:?}");
                    assert_eq!(b.masks.len(), team, "{case}");
                    for m in &b.masks {
                        assert!(!m.is_empty() && m.is_subset_of(&mask), "{case}: {m:?}");
                    }
                }
            }
        }
    }

    /// Spread with no more threads than places gives pairwise-disjoint
    /// masks.
    #[test]
    fn spread_is_disjoint_when_places_suffice() {
        let topo = presets::frontier();
        let mask = CpuSet::range(1, 7);
        for team in 1..7usize {
            let env = OmpEnv {
                num_threads: Some(team),
                proc_bind: ProcBind::Spread,
                places: PlacesSpec::Cores,
            };
            let b = bind_team(&topo, &env, &mask, team);
            for i in 0..team {
                for j in (i + 1)..team {
                    assert!(
                        !b.masks[i].intersects(&b.masks[j]),
                        "team {team}: threads {i} and {j} overlap"
                    );
                }
            }
        }
    }
}
