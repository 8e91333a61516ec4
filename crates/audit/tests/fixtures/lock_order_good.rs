//! Known-good lock-order fixture: nestings in strictly increasing rank
//! (shard_map/0 → key_state/30 → net_writer/36, net_state/38 after
//! key_state via the wrapper), plus one deliberate inversion carrying
//! an `audit:allow` justification. Zero findings, one suppression.

fn ordered_raw(&self) {
    let m = self.map.lock();
    let st = self.state.lock();
    let w = self.writer.lock();
    drop(w);
    drop(st);
    drop(m);
}

fn ordered_tracked(&self) {
    let st = tracked_lock(ranks::KEY_STATE, "key_state", || self.state.lock());
    let c = tracked_lock(ranks::NET_STATE, "net_state", || self.replies.lock());
    drop(c);
    drop(st);
}

fn annotated_inversion(&self) {
    let q = self.conns.lock();
    // audit:allow(lock-order) — fixture: a documented, deliberate
    // inversion (the guard is release-before-reacquire in real code).
    let st = self.state.lock();
    drop(st);
    drop(q);
}
