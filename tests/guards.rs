//! Source guards: spellings that must not come back into the tree, each
//! with the design rule it would break. The guards read the files
//! themselves, so they run with the rest of the suite and need no `git`;
//! CI calls each one by its test name.
//!
//! A pattern is a plain substring, except that a trailing `\b` also
//! requires that no identifier character follow it (`ShardMsg::Ingest\b`
//! does not match `ShardMsg::IngestBatch`).

use std::path::{Path, PathBuf};

/// No line of a file under `roots`, outside `except`, may contain one of
/// `patterns`. A root may name one `*` directory level (`crates/*/src`), or
/// a single file.
struct Guard {
    rule: &'static str,
    patterns: &'static [&'static str],
    roots: &'static [&'static str],
    except: &'static [&'static str],
}

fn repo_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().expect("the workspace root exists")
}

/// The directories `root` names, `*` expanded to every entry of its parent.
fn expand(repo: &Path, root: &str) -> Vec<PathBuf> {
    let Some((parent, child)) = root.split_once("/*/") else {
        return vec![repo.join(root)];
    };
    let entries = std::fs::read_dir(repo.join(parent)).expect("a guarded root exists");
    let mut dirs: Vec<PathBuf> =
        entries.map(|e| e.expect("readable entry").path().join(child)).collect();
    dirs.retain(|d| d.is_dir());
    dirs.sort();
    dirs
}

/// Every file under `dir`, recursively.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Whether `line` contains `pattern` (see the module docs for `\b`).
fn matches(line: &str, pattern: &str) -> bool {
    let (needle, word_end) = match pattern.strip_suffix("\\b") {
        Some(needle) => (needle, true),
        None => (pattern, false),
    };
    let ends_word = |at: usize| !line[at..].starts_with(|c: char| c.is_alphanumeric() || c == '_');
    line.match_indices(needle).any(|(at, _)| !word_end || ends_word(at + needle.len()))
}

fn assert_absent(guard: &Guard) {
    let repo = repo_root();
    let mut files = Vec::new();
    for dir in guard.roots.iter().flat_map(|root| expand(&repo, root)) {
        if dir.is_file() {
            files.push(dir);
        } else {
            files_under(&dir, &mut files);
        }
    }
    let excepted = |path: &Path| guard.except.iter().any(|e| path.starts_with(repo.join(e)));
    files.retain(|path| !excepted(path));
    assert!(!files.is_empty(), "{:?} holds no file to guard", guard.roots);
    let mut hits = Vec::new();
    for path in &files {
        let Ok(text) = std::fs::read_to_string(path) else { continue };
        for (n, line) in text.lines().enumerate() {
            if guard.patterns.iter().any(|p| matches(line, p)) {
                let shown = path.strip_prefix(&repo).unwrap_or(path).display();
                hits.push(format!("{shown}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    assert!(hits.is_empty(), "{}, but:\n{}", guard.rule, hits.join("\n"));
}

#[test]
fn the_back_off_stays_in_the_channel() {
    assert_absent(&Guard {
        rule: "how a thread waits for a message is the channel shim's rule (a `recv` backs off \
               once, then parks); a yield in a runtime loop would be a second rule",
        patterns: &["yield_now"],
        roots: &["crates/*/src"],
        except: &[],
    });
}

#[test]
fn degraded_mode_keeps_no_start_up_copy_and_no_off_switch() {
    assert_absent(&Guard {
        rule: "the degraded ladder reads the shards' live counts: no start-up copy, and no \
               switch that turns it off at the first ingested event",
        patterns: &["deg_dirty", "degraded_consult"],
        roots: &["crates"],
        except: &[],
    });
}

#[test]
fn the_degraded_ladder_follows_the_live_quarantine() {
    assert_absent(&Guard {
        rule: "the degraded answerer is one quarantine generation, rebuilt by the supervisor \
               when the column grows: it answers on the graph rerouted around that quarantine, \
               which monitors none of its edges, so it keeps no set of them",
        patterns: &["HashSet"],
        roots: &["crates/core/src/degraded.rs"],
        except: &[],
    });
    assert_absent(&Guard {
        rule: "every degraded-mode bracket, value and confidence comes from certified \
               machinery: no learned rung whose point estimate moves only the value and the \
               confidence, and no row that counts it",
        patterns: &["LearnedFallback", "HybridSource", "degraded_learned"],
        roots: &["crates", "examples"],
        except: &[],
    });
    assert_absent(&Guard {
        rule: "the degraded ladder is the rerouted graph's bracket: rerouting only refines \
               demotion, so no demoted rung can win; and a standing bracket bounds the fold \
               over what the sensors recorded, which an interval on a link's true flow does \
               not, so no imputed rung, row, switch or certificate comes back",
        patterns: &[
            "DegradedPolicy",
            "imputed_sides",
            "region_bounds",
            "enclosure_upper",
            "degraded_demoted",
            "degraded_imputed",
            "DegradedStrategy::Demoted",
            "DegradedStrategy::Imputation",
            "Imputer",
            "ImputedInterval",
            "intervals_at",
            "certify_imputed",
            "certify_standing_brackets",
            "add_certified",
        ],
        roots: &["crates", "examples"],
        except: &[],
    });
}

#[test]
fn shard_state_is_spelled_shard_forms() {
    assert_absent(&Guard {
        rule: "the forms one shard owns are one type, `stq_forms::ShardForms`, not a container",
        patterns: &["HashMap<usize, TrackingForm>"],
        roots: &["crates/*/src"],
        except: &[],
    });
}

#[test]
fn a_worker_logs_the_lane_it_was_handed() {
    assert_absent(&Guard {
        rule: "a worker logs the lane it was handed, not a copy of it as `(seq, event)` pairs",
        patterns: &["Vec<(u64, Crossing)>"],
        roots: &["crates/runtime/src"],
        except: &[],
    });
}

#[test]
fn a_lane_is_one_slice_of_crossings() {
    assert_absent(&Guard {
        rule: "a lane is one row slice from `ingest_batch` to the WAL: nothing outside \
               `stq-forms` turns a batch into columns",
        patterns: &["ColumnarBatch"],
        roots: &["crates/*/src"],
        except: &["crates/forms/src"],
    });
}

#[test]
fn one_ingest_path() {
    assert_absent(&Guard {
        rule: "an ingested event is a lane of one: `ingest` takes the batch path, so there is \
               no per-event sender and no per-event shard message",
        patterns: &["send_one", "ShardMsg::Ingest\\b"],
        roots: &["crates/runtime/src"],
        except: &[],
    });
}

#[test]
fn one_single_target_search() {
    assert_absent(&Guard {
        rule: "a single-target shortest path is `stq_planar::paths::PathFinder`: a second \
               early-exit search beside it would be a second set of tie and weight rules",
        patterns: &["dijkstra_to"],
        roots: &["crates/*/src"],
        except: &[],
    });
}

#[test]
fn one_failover_path() {
    assert_absent(&Guard {
        rule: "the served failover is `SampledGraph::reroute_around`: a warm-started \
               re-selection of sensors beside it is a second path nothing serves",
        patterns: &["resample_surviving", "lazy_greedy_seeded", "with_banned_edges"],
        roots: &["crates"],
        except: &[],
    });
}

#[test]
fn what_only_its_own_tests_reach_stays_gone() {
    assert_absent(&Guard {
        rule: "a `pub` item that only its own package's tests reach does not earn its place: \
               the inputs are generated plane graphs (no planarization), `∂` is \
               `SensingGraph::boundary_walk`, whose compiled form is a sampled graph's exit \
               table (no 1-chains), nothing serves a convex hull, and `ChaosConfig::new` is the \
               one way to derive the fault plans",
        patterns: &[
            "planarize",
            "PlaneGraph",
            "convex_hull",
            "SignedEdge",
            "vertex_boundary",
            "ChaosBuilder",
        ],
        roots: &["crates", "examples", "tests"],
        except: &["tests/guards.rs"],
    });
}

#[test]
fn a_panicking_shard_is_answered_not_respawned() {
    assert_absent(&Guard {
        rule: "a request that panics is answered as `panicked` and widens its shard's edges; \
               the worker serves on, and a death (a scheduled kill, or a panic that escapes the \
               request guard) is the one exit the supervisor rebuilds, so no panic count may \
               make a worker exit",
        patterns: &["panic_threshold", "consecutive_panics", "Escalated\\b"],
        roots: &["crates/*/src"],
        except: &[],
    });
}

#[test]
fn a_knob_needs_a_second_caller() {
    assert_absent(&Guard {
        rule: "a setting only tests turn is a constant at its one point of use: the rebalance \
               check window, imbalance trigger, move cap and decay, the breakers' trip count \
               and open time, and the chaos seed's legacy alias (refused as an unread flag, \
               which one CLI test pins) have no second caller",
        patterns: &[
            "RebalanceConfig",
            "BreakerConfig",
            "ChaosError",
            "failure_threshold",
            "fault-seed",
        ],
        roots: &["crates", "examples"],
        except: &["crates/cli/tests/unread_flags.rs"],
    });
}

#[test]
fn overload_keeps_only_the_rungs_a_cell_rewards() {
    assert_absent(&Guard {
        rule: "an overload rung stays only while a measured `overload_sweep` cell rewards it, \
               and admission and brownout read one measured signal, the age of the oldest \
               query in flight: shedding subscription pushes under brownout moved nothing but \
               the pushes, charging ingest batches to the admission gate moved nothing at all, \
               the area price refused queries on an idle runtime, and the six brownout \
               watermarks never engaged at their defaults, so none of them comes back, nor \
               their rows",
        patterns: &[
            "set_shed_pushes",
            "UpdateCause::Coalesced",
            "pushes_shed",
            "sub_coalesced",
            "charge_ingest",
            "BrownoutConfig",
            "max_inflight_cost",
            "admission_units",
            "Pricer",
            "inflight_milli",
            "window_p95_us",
        ],
        roots: &["crates", "examples"],
        except: &[],
    });
}

#[test]
fn the_audit_flags_only_what_it_proves() {
    assert_absent(&Guard {
        rule: "the sensor audit flags what conservation and the local invariants prove: a \
               quiet log is not evidence (the silence detectors flagged over half the links \
               of a healthy deployment), so neither they nor the knobs and config types that \
               tuned them come back",
        patterns: &[
            "SilentGap",
            "SilentSibling",
            "AuditConfig",
            "RepairConfig",
            "gap_factor",
            "silent_sibling_min",
        ],
        roots: &["crates", "examples"],
        except: &[],
    });
}

#[test]
fn recovery_and_migration_rebuild_nothing_they_cannot_change() {
    assert_absent(&Guard {
        rule: "a plan is a region resolved on the one graph pair a runtime serves for its life, \
               and a standing bracket folds the registry's mirror, so neither a recovery nor a \
               migration can change one: no plan-cache clear or its counter, no subscription \
               trace ring that only its own test read, and no ring-count knob on the failover \
               beside `reroute_around`",
        patterns: &[
            "invalidate(",
            "plan_invalidations",
            "SubscriptionTrace",
            "trace_subscription",
            "reroute_around_multi",
        ],
        roots: &["crates", "examples"],
        except: &[],
    });
}

#[test]
fn metrics_are_one_table() {
    assert_absent(&Guard {
        rule: "a count is kept and named once, as a row of the runtime's `metrics!` table: the \
               subscription registry returns what a call did and keeps no counters beside it, \
               the report prints the table, and a query's trace is its `ServedAnswer`, so no \
               copy of either comes back, nor the one-link conservation interval on true flow",
        patterns: &[
            "QueryTrace",
            "RegistryStats",
            "subscription_stats",
            "deltas_applied",
            "net_flow_interval",
        ],
        roots: &["crates", "examples"],
        except: &[],
    });
}

/// The lines of `text` before its test module (`#[cfg(test)]` followed by
/// `mod`), numbered from 1.
fn outside_tests(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let lines: Vec<&str> = text.lines().collect();
    let tests = lines
        .windows(2)
        .position(|w| w[0].trim() == "#[cfg(test)]" && w[1].trim_start().starts_with("mod "));
    lines.into_iter().take(tests.unwrap_or(usize::MAX)).enumerate().map(|(n, l)| (n + 1, l))
}

#[test]
fn one_fan_out_path() {
    // A line that builds a request message: the variant called, not matched
    // (a pattern sits in a `match` arm, or before the `=` of a `let`).
    let builds = |line: &str| match line.split_once("ShardMsg::Query(") {
        Some((_, after)) => !line.contains("=>") && !after.contains(" = "),
        None => false,
    };
    let repo = repo_root();
    let mut files = Vec::new();
    files_under(&repo.join("crates/runtime/src"), &mut files);
    files.sort();
    let mut sites = Vec::new();
    for path in &files {
        let Ok(text) = std::fs::read_to_string(path) else { continue };
        for (n, line) in outside_tests(&text).filter(|(_, line)| builds(line)) {
            let shown = path.strip_prefix(&repo).unwrap_or(path).display();
            sites.push(format!("{shown}:{n}: {}", line.trim()));
        }
    }
    assert!(
        sites.len() == 1,
        "a query reaches its shards through the dispatcher's batch alone: one site builds a \
         `ShardMsg::Query`, and a per-query path beside it would be a second fan-out, but \
         found {}:\n{}",
        sites.len(),
        sites.join("\n")
    );
}

/// What a pure core may not spell outside its tests: a clock, a wait, a
/// channel's sending end, the server's or the shards' shared state, metrics.
const IMPURE: [&str; 6] =
    ["Instant::now", "recv_timeout", "ServerState", "Sender", "Metrics", "st.shared"];

/// The lines of `core` outside its tests that contain one of `patterns`.
fn impure_lines(core: &str, patterns: &[&str]) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join(core)).expect("the core exists");
    outside_tests(&text)
        .filter(|(_, line)| patterns.iter().any(|p| matches(line, p)))
        .map(|(n, line)| format!("{core}:{n}: {}", line.trim()))
        .collect()
}

#[test]
fn the_fan_out_core_reads_no_clock_and_no_state() {
    let hits = impure_lines("crates/runtime/src/flight.rs", &IMPURE);
    assert!(
        hits.is_empty(),
        "the fan-out core is a state machine the dispatcher's loop feeds the time, replies and \
         health verdicts: it reads no clock, waits on no channel, sends nothing and sees no \
         server state or metrics, so its tests can walk every reply order, but:\n{}",
        hits.join("\n")
    );
}

#[test]
fn the_lifecycle_core_reads_no_clock_and_no_state() {
    let patterns: Vec<&str> = IMPURE.into_iter().chain(["std::fs", "stq_durability::"]).collect();
    let hits = impure_lines("crates/runtime/src/lifecycle.rs", &patterns);
    assert!(
        hits.is_empty(),
        "the lifecycle core holds a shard's rules as values the ingest path, a worker's drop and \
         the supervisor feed it and carry out: it reads no clock, waits on no channel, sends \
         nothing, touches no disk and sees no shared state or metrics, so its tests can walk \
         every order of deaths and migrations, but:\n{}",
        hits.join("\n")
    );
}

#[test]
fn time_is_read_through_the_clock() {
    const TIME: [&str; 7] = [
        "Instant::now",
        ".elapsed()",
        "recv_timeout",
        "send_timeout",
        "thread::sleep",
        "thread::Builder",
        "thread::spawn",
    ];
    let repo = repo_root();
    let mut files = Vec::new();
    files_under(&repo.join("crates/runtime/src"), &mut files);
    files.sort();
    let hits: Vec<String> = files
        .iter()
        .map(|path| path.strip_prefix(&repo).expect("under the repo").to_string_lossy())
        .flat_map(|path| impure_lines(&path, &TIME))
        .collect();
    assert!(
        hits.is_empty(),
        "the runtime reads the time, sleeps, waits with a deadline and starts threads through \
         `crossbeam::clock` (`now`, `since`, `deadline`, `sleep`, `recv_deadline`, \
         `send_deadline`, `spawn`), so a test can run it on virtual time, but:\n{}",
        hits.join("\n")
    );
}

#[test]
fn one_function_publishes_a_durable_floor() {
    let repo = repo_root();
    let mut files = Vec::new();
    files_under(&repo.join("crates/runtime/src"), &mut files);
    files.sort();
    let mut sites = Vec::new();
    let mut writers = Vec::new();
    for path in &files {
        let Ok(text) = std::fs::read_to_string(path) else { continue };
        let shown = path.strip_prefix(&repo).unwrap_or(path).display().to_string();
        let mut function = String::new();
        for (n, line) in outside_tests(&text) {
            if let Some((_, rest)) = line.split_once("fn ") {
                function = rest.split(['(', '<']).next().unwrap_or_default().to_string();
            }
            if line.contains("durable_seq[") && line.contains(".store(") {
                sites.push(format!("{shown}:{n} (in `{function}`): {}", line.trim()));
                writers.push(format!("{shown}::{function}"));
            }
        }
    }
    writers.dedup();
    assert!(
        writers.len() == 1,
        "a shard's durable floor is published by one function, for the worker's syncs, a \
         recovery, a migration's cut and a lost log alike, so no writer of it can skip the rule \
         that `NO_LOG` means no log, but found {} writers:\n{}",
        writers.len(),
        sites.join("\n")
    );
}

#[test]
fn a_worker_dies_one_way_and_a_failed_write_drops_the_log() {
    let allowed = ["expect(\"spawn ", "expect(\"initialize shard durability\")"];
    let repo = repo_root();
    let mut hits = Vec::new();
    for name in ["shard.rs", "supervisor.rs", "lifecycle.rs"] {
        let file = format!("crates/runtime/src/{name}");
        let text = std::fs::read_to_string(repo.join(&file)).expect("the runtime source exists");
        let panics =
            |line: &str| line.contains("expect(") && !allowed.iter().any(|a| line.contains(a));
        for (n, line) in outside_tests(&text).filter(|(_, line)| panics(line)) {
            hits.push(format!("{file}:{n}: {}", line.trim()));
        }
    }
    assert!(
        hits.is_empty(),
        "a worker's death is reported by its drop, and a failed write on a shard's log drops the \
         log (`Shared::log_io`), so the shard, its lifecycle and its supervisor panic on no \
         `Result`: an `expect` is kept only for a thread spawn and the start-up durability \
         `Runtime::new`'s signature cannot return, but:\n{}",
        hits.join("\n")
    );
}

#[test]
fn word_end_patterns_leave_longer_identifiers_alone() {
    assert!(matches("ShardMsg::Ingest { seq, event }", "ShardMsg::Ingest\\b"));
    assert!(matches("ShardMsg::Ingest", "ShardMsg::Ingest\\b"));
    assert!(!matches("ShardMsg::IngestBatch { first_seq, lane }", "ShardMsg::Ingest\\b"));
    assert!(matches("x.yield_now_twice()", "yield_now"));
}
