//! Reachability fixture: one panic site two calls deep from the entry
//! point (a violation with its chain) and one in an orphan fn nothing
//! calls (a violation with no chain).

pub fn execute() {
    stage_a();
}

fn stage_a() {
    stage_b();
}

fn stage_b() {
    let v: Vec<u32> = vec![1];
    let _ = v.first().unwrap();
}

pub fn orphan() {
    let x: Option<u32> = None;
    let _ = x.unwrap();
}
