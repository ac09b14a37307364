//! Unit tests of the client's own counters.

use super::StoreClientNode;
use crate::harness::StoreBuilder;

/// The bulk round tag steps by wrapping: a client whose tag sits at
/// `u64::MAX` (as a transient fault may leave it) still completes a
/// coded put and a get, where a plain `+= 1` panics a debug build.
#[test]
fn bulk_tag_wraps_at_its_end() {
    let mut sys = StoreBuilder::asynchronous(1)
        .seed(7)
        .shards(4)
        .bulk_coded(2)
        .build::<u64>();
    for &client in &sys.clients.clone() {
        sys.sim
            .with_node::<StoreClientNode<u64>, _>(client, |n, _| n.next_bulk_tag = u64::MAX);
    }
    sys.put("alpha", 11);
    assert!(sys.settle());
    sys.get(0, "alpha");
    assert!(sys.settle());
    let h = sys.history_for_key("alpha");
    assert_eq!(h.reads().next().unwrap().kind.value(), &Some(11));
    assert_eq!(sys.check_per_key_atomicity().unwrap(), 1);
}
