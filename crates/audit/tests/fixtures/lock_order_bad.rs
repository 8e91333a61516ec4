//! Known-bad lock-order fixture: hierarchy inversions against the real
//! `audit.toml` manifest (`due` = governor/50, `state` =
//! key_state/30, `slots` = slot_table/20), through both the raw
//! `field.lock()` form and the `tracked_lock` wrapper, plus a
//! `tracked_lock` call naming a rank constant the manifest does not
//! know.

fn inverted_raw(&self) {
    let q = self.due.lock();
    let st = self.state.lock(); //~ lock-order
    drop(st);
    drop(q);
}

fn inverted_tracked(&self) {
    let q = tracked_lock(ranks::GOVERNOR, "governor", || self.due.lock());
    let s = tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.read()); //~ lock-order
    drop(s);
    drop(q);
}

fn unknown_rank(&self) {
    let g = tracked_lock(ranks::MYSTERY_LOCK, "mystery", || self.mystery.lock()); //~ lock-order
    drop(g);
}
