//! Known-bad lock-order fixture: hierarchy inversions against the real
//! `audit.toml` manifest (`conns` = conn_table/72, `state` =
//! key_state/30, `replies` = net_state/38), through both the raw
//! `field.lock()` form and the `tracked_lock` wrapper, plus a
//! `tracked_lock` call naming a rank constant the manifest does not
//! know.

fn inverted_raw(&self) {
    let q = self.conns.lock();
    let st = self.state.lock(); //~ lock-order
    drop(st);
    drop(q);
}

fn inverted_tracked(&self) {
    let r = tracked_lock(ranks::NET_STATE, "net_state", || self.replies.lock());
    let s = tracked_lock(ranks::KEY_STATE, "key_state", || self.state.lock()); //~ lock-order
    drop(s);
    drop(r);
}

fn unknown_rank(&self) {
    let g = tracked_lock(ranks::MYSTERY_LOCK, "mystery", || self.mystery.lock()); //~ lock-order
    drop(g);
}
