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
/// `patterns`. A root may name one `*` directory level (`crates/*/src`).
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
        files_under(&dir, &mut files);
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

#[test]
fn the_fan_out_core_reads_no_clock_and_no_state() {
    let core = "crates/runtime/src/flight.rs";
    let text = std::fs::read_to_string(repo_root().join(core)).expect("the fan-out core exists");
    let patterns =
        ["Instant::now", "recv_timeout", "ServerState", "Sender", "Metrics", "st.shared"];
    let hits: Vec<String> = outside_tests(&text)
        .filter(|(_, line)| patterns.iter().any(|p| matches(line, p)))
        .map(|(n, line)| format!("{core}:{n}: {}", line.trim()))
        .collect();
    assert!(
        hits.is_empty(),
        "the fan-out core is a state machine the dispatcher's loop feeds the time, replies and \
         health verdicts: it reads no clock, waits on no channel, sends nothing and sees no \
         server state or metrics, so its tests can walk every reply order, but:\n{}",
        hits.join("\n")
    );
}

#[test]
fn a_worker_dies_one_way_and_a_failed_write_drops_the_log() {
    let allowed =
        ["expect(\"spawn ", "expect(\"retired\")", "expect(\"initialize shard durability\")"];
    let repo = repo_root();
    let mut hits = Vec::new();
    for file in ["crates/runtime/src/shard.rs", "crates/runtime/src/supervisor.rs"] {
        let text = std::fs::read_to_string(repo.join(file)).expect("the runtime source exists");
        let panics =
            |line: &str| line.contains("expect(") && !allowed.iter().any(|a| line.contains(a));
        for (n, line) in outside_tests(&text).filter(|(_, line)| panics(line)) {
            hits.push(format!("{file}:{n}: {}", line.trim()));
        }
    }
    assert!(
        hits.is_empty(),
        "a worker's death is reported by its drop, and a failed write on a shard's log drops the \
         log (`Shared::log_io`), so the shard and its supervisor panic on no `Result`: an \
         `expect` is kept only for a thread spawn, a migration's retired-state lookup and the \
         start-up durability `Runtime::new`'s signature cannot return, but:\n{}",
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
