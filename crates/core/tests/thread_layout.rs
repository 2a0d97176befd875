//! A replica runs `verifier_threads + 2` threads: its verifiers, the
//! ordering worker (which also hands its messages to the transport) and
//! the execute thread. The test lists this process's threads by name,
//! which is why it is a test binary of its own: no sibling test's
//! replicas run beside it.
#![cfg(target_os = "linux")]

use rdb_common::ids::ClusterId;
use rdb_consensus::config::ProtocolKind;
use rdb_store::{Operation, Value};
use resilientdb::DeploymentBuilder;
use std::collections::BTreeMap;
use std::time::Duration;

/// The names of this process's threads.
fn thread_names() -> Vec<String> {
    let mut names = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("list threads") {
        let task = task.expect("thread entry");
        // A thread may exit between the listing and the read.
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        if let Some(name) = status.lines().find_map(|l| l.strip_prefix("Name:")) {
            names.push(name.trim().to_owned());
        }
    }
    names
}

/// `R<c>.<i>-<role>` split into the replica and the role.
fn replica_role(name: &str) -> Option<(&str, &str)> {
    let (node, role) = name.split_once('-')?;
    let (c, i) = node.strip_prefix('R')?.split_once('.')?;
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    (digits(c) && digits(i)).then_some((node, role))
}

#[test]
fn each_replica_runs_its_verifiers_its_worker_and_its_execute_thread() {
    let fabric = DeploymentBuilder::new(ProtocolKind::GeoBft, 2, 4)
        .batch_size(5)
        .records(100)
        .verifier_threads(1)
        .start();
    let session = fabric.session(ClusterId(0));
    session
        .submit_one(Operation::Write {
            key: 7,
            value: Value::from_u64(7),
        })
        .wait_timeout(Duration::from_secs(30))
        .expect("a session batch commits");

    let names = thread_names();
    let mut roles: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (node, role) in names.iter().filter_map(|n| replica_role(n)) {
        roles.entry(node).or_default().push(role);
    }
    assert_eq!(roles.len(), 8, "replicas: {names:?}");
    for (node, mut got) in roles {
        got.sort_unstable();
        assert_eq!(got, ["execute", "verify0", "worker"], "{node}: {names:?}");
    }
    assert!(
        !names.iter().any(|n| n.ends_with("-output")),
        "an output thread runs: {names:?}"
    );
    fabric.shutdown();
}
