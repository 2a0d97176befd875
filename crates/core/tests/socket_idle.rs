//! An idle socket mesh never wakes: its accept loops block in `accept`
//! and its readers in `read`, so once the traffic stops none of them is
//! scheduled again until the next connection or frame. The test counts
//! the voluntary context switches of the mesh threads, which is why it is
//! a test binary of its own: no sibling test's mesh threads run beside it.
#![cfg(target_os = "linux")]

use rdb_common::ids::{NodeId, ReplicaId};
use rdb_consensus::messages::Message;
use resilientdb::{SocketKind, SocketTransport, Transport};
use std::collections::HashMap;
use std::time::Duration;

/// `voluntary_ctxt_switches` of every accept and reader thread of this
/// process, by thread id.
fn mesh_switches() -> HashMap<String, u64> {
    let mut switches = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("list threads") {
        let task = task.expect("thread entry");
        // A thread may exit between the listing and the read.
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(str::trim)
        };
        let name = field("Name:").unwrap_or_default();
        if !(name.starts_with("rdb-accept") || name.starts_with("rdb-read")) {
            continue;
        }
        let count = field("voluntary_ctxt_switches:")
            .and_then(|v| v.parse().ok())
            .expect("voluntary_ctxt_switches");
        switches.insert(task.file_name().to_string_lossy().into_owned(), count);
    }
    switches
}

#[test]
fn idle_socket_mesh_threads_do_not_wake() {
    let t = Transport::Socket(SocketTransport::new(SocketKind::Tcp, None));
    let a: NodeId = ReplicaId::new(0, 0).into();
    let b: NodeId = ReplicaId::new(0, 1).into();
    let ha = t.register(a);
    let hb = t.register(b);
    ha.send(b, Message::Noop);
    assert!(hb.inbox.recv_timeout(Duration::from_secs(5)).is_ok());

    let before = mesh_switches();
    // Two accept loops and the reader of the one link.
    assert_eq!(before.len(), 3, "mesh threads: {before:?}");
    std::thread::sleep(Duration::from_millis(300));
    let after = mesh_switches();
    let woke: u64 = before
        .iter()
        .map(|(tid, n)| after.get(tid).map_or(0, |m| m - n))
        .sum();
    assert!(woke <= 3, "idle mesh threads woke {woke} times in 300 ms");
    t.shutdown();
}
