// Golden fixture: MUST pass `nan-ordering`. Total-order comparison via
// the geom helper; a PartialOrd *definition* (no preceding dot) is a
// trait impl, not a float comparison, and must not trip.
fn total_sort(v: &mut Vec<f64>) {
    v.sort_by(|a, b| obstacle_geom::total_cmp(*a, *b));
}

struct Key(f64);

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(obstacle_geom::total_cmp(self.0, other.0))
    }
}
