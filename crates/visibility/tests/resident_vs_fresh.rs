//! Query cost follows the search's remaining budget, not the resident
//! scene: a short path query and a range query cost about the same
//! sweeps in a scene that earlier absorbed — and searched — an unrelated
//! cluster hundreds of obstacle diagonals away as they do in a fresh
//! scene holding only their own neighbourhood, and answer identically.
//!
//! Before successor generation had a reach, every settled node's open
//! horizon arcs were wedge-refined out to the scene's extent, so the far
//! cluster (visible through the empty space between) multiplied the
//! sweeps of a query that never goes near it.

use obstacle_datagen::{sample_entities, City, CityConfig};
use obstacle_geom::{Point, Polygon, Rect};
use obstacle_visibility::{EdgeBuilder, LazyScene, NodeId};

/// What the two queries answered, by position (node ids differ between
/// scenes).
#[derive(Debug, PartialEq)]
struct Answers {
    path: (u64, Vec<Point>),
    range: Vec<(Point, u64)>,
}

fn mean_diag(polys: &[Polygon]) -> f64 {
    polys
        .iter()
        .map(|p| {
            let b = p.bbox();
            b.min.dist(b.max)
        })
        .sum::<f64>()
        / polys.len() as f64
}

/// Adds `local`, then answers the short path `p → q` and the range query
/// `(q, e)` over `targets`; returns the answers and the sweeps they cost.
fn run_queries(
    scene: &mut LazyScene,
    local: &[Polygon],
    q: Point,
    p: Point,
    e: f64,
    targets: &[Point],
) -> (Answers, usize) {
    for (i, poly) in local.iter().enumerate() {
        scene.add_obstacle(poly.clone(), i as u64);
    }
    let nq = scene.add_waypoint(q, u64::MAX);
    let np = scene.add_waypoint(p, 0);
    for (i, &t) in targets.iter().enumerate() {
        scene.add_waypoint(t, 1 + i as u64);
    }
    let before = scene.sweep_count();
    let path = scene.astar(np, nq).expect("p and q are free points");
    // Every live node a target: the whole disk is settled and compared.
    let all: Vec<NodeId> = scene.live_nodes().collect();
    let range = scene.bounded_expansion(nq, e, &all);
    let sweeps = scene.sweep_count() - before;
    let answers = Answers {
        path: (path.distance.to_bits(), path.points),
        range: range
            .into_iter()
            .map(|(n, d)| (scene.position(n), d.to_bits()))
            .collect(),
    };
    (answers, sweeps)
}

#[test]
fn a_far_resident_cluster_does_not_tax_a_local_query() {
    let city = City::generate(CityConfig::new(400, 7));
    let diag = mean_diag(&city.obstacles);
    let entities = sample_entities(&city, 600, 11);

    // The query point: the entity nearest the city centre; p: the
    // farthest entity still within 4 mean diagonals of it.
    let centre = city.universe.center();
    let q = *entities
        .iter()
        .min_by(|a, b| a.dist(centre).total_cmp(&b.dist(centre)))
        .expect("entities were sampled");
    let p = *entities
        .iter()
        .filter(|x| x.dist(q) <= 4.0 * diag && **x != q)
        .max_by(|a, b| a.dist(q).total_cmp(&b.dist(q)))
        .expect("some entity lies within 4 diagonals of q");
    let e = 2.5 * diag;
    let targets: Vec<Point> = entities
        .iter()
        .copied()
        .filter(|x| x.dist(q) <= e && *x != q && *x != p)
        .collect();
    assert!(targets.len() >= 3, "the range query has candidates");

    // The queries' own neighbourhood: what Fig. 5 / Fig. 8 absorption
    // registers for them (the disk of radius e, the ellipse of major axis
    // d_O + prefetch), generously.
    let local: Vec<Polygon> = city
        .obstacles
        .iter()
        .filter(|o| o.bbox().mindist_point(q) <= 5.0 * diag)
        .cloned()
        .collect();
    assert!(local.len() >= 20 && local.len() < city.obstacles.len());

    let mut fresh = LazyScene::new(EdgeBuilder::RotationalSweep);
    let (fresh_answers, fresh_sweeps) = run_queries(&mut fresh, &local, q, p, e, &targets);

    // The resident scene first absorbed and searched an unrelated
    // cluster (same density, so the same mean diagonal) several hundred
    // diagonals to the east.
    let shift = 400.0 * diag;
    let far_universe = Rect::from_coords(shift, 0.0, shift + 1.0, 1.0);
    let far = City::generate(CityConfig {
        universe: far_universe,
        ..CityConfig::new(400, 8)
    });
    let far_entities = sample_entities(&far, 40, 12);
    let mut resident = LazyScene::new(EdgeBuilder::RotationalSweep);
    for (i, poly) in far.obstacles.iter().enumerate() {
        resident.add_obstacle(poly.clone(), 1_000_000 + i as u64);
    }
    let a = resident.add_waypoint(far_entities[0], 7);
    let others: Vec<NodeId> = far_entities[1..]
        .iter()
        .map(|&x| resident.add_waypoint(x, 8))
        .collect();
    assert!(resident.astar(a, others[0]).is_some());
    let all: Vec<NodeId> = resident.live_nodes().collect();
    assert!(resident.bounded_expansion(a, 6.0 * diag, &all).len() > 1);
    for w in others {
        resident.remove_waypoint(w);
    }
    resident.remove_waypoint(a);

    let (resident_answers, resident_sweeps) = run_queries(&mut resident, &local, q, p, e, &targets);

    assert_eq!(fresh_answers, resident_answers);
    assert!(
        fresh_answers.range.len() > 1,
        "the range query found something"
    );
    assert!(
        resident_sweeps as f64 <= 1.5 * fresh_sweeps as f64,
        "the far cluster taxed a local query: {resident_sweeps} sweeps in the resident scene, \
         {fresh_sweeps} in a fresh one"
    );
    println!("sweeps: fresh {fresh_sweeps}, resident {resident_sweeps}");
}
