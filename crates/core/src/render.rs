//! SVG rendering of sensing graphs and deployments.
//!
//! Reproduction of figures like the paper's Fig. 4 (sampling methods on the
//! Beijing network) and Fig. 6 (sampled-graph construction) needs pictures;
//! this module renders a scene to a standalone SVG string: the road
//! network, sensors, a sampled deployment's monitored links and
//! communication sensors.

use std::fmt::Write as _;

use crate::sampled::SampledGraph;
use crate::sensing::SensingGraph;
use stq_geom::Rect;

/// What to draw, layered bottom-up.
#[derive(Debug, Default)]
pub struct Scene<'a> {
    /// Base sensing graph: roads (grey) and sensors (small dots).
    pub sensing: Option<&'a SensingGraph>,
    /// A deployment: monitored links (blue) + communication sensors (red).
    pub sampled: Option<(&'a SensingGraph, &'a SampledGraph)>,
    /// Canvas width in pixels (height follows the aspect ratio).
    pub width: f64,
}

impl<'a> Scene<'a> {
    /// A scene over a sensing graph.
    pub fn new(sensing: &'a SensingGraph) -> Self {
        Scene { sensing: Some(sensing), sampled: None, width: 800.0 }
    }

    /// Adds a sampled deployment overlay.
    pub fn with_sampled(mut self, sensing: &'a SensingGraph, g: &'a SampledGraph) -> Self {
        self.sampled = Some((sensing, g));
        self
    }

    /// Renders to a standalone SVG document.
    pub fn to_svg(&self) -> String {
        let bb = self
            .sensing
            .map(|s| s.road().bbox())
            .or_else(|| self.sampled.map(|(s, _)| s.road().bbox()))
            .unwrap_or_else(|| {
                Rect::from_corners(stq_geom::Point::ORIGIN, stq_geom::Point::new(1.0, 1.0))
            })
            .inflated(1.0);
        let scale = self.width / bb.width().max(1e-9);
        let height = bb.height() * scale;
        let tx = move |x: f64| (x - bb.min.x) * scale;
        // SVG y grows downward; flip so north is up.
        let ty = move |y: f64| height - (y - bb.min.y) * scale;

        let mut svg = String::new();
        let _ = writeln!(
            svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" viewBox="0 0 {:.0} {:.0}">"#,
            self.width, height, self.width, height
        );
        let _ = writeln!(svg, r#"<rect width="100%" height="100%" fill="white"/>"#);

        // Roads.
        if let Some(s) = self.sensing {
            let emb = s.road().embedding();
            let _ = writeln!(svg, r##"<g stroke="#bbbbbb" stroke-width="1" fill="none">"##);
            for e in 0..emb.num_edges() {
                let (u, v) = emb.edge_endpoints(e);
                if let (Some(p), Some(q)) = (emb.position(u), emb.position(v)) {
                    let _ = writeln!(
                        svg,
                        r#"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}"/>"#,
                        tx(p.x),
                        ty(p.y),
                        tx(q.x),
                        ty(q.y)
                    );
                }
            }
            let _ = writeln!(svg, "</g>");
            // Sensors.
            let _ = writeln!(svg, r##"<g fill="#999999">"##);
            for (p, _) in s.sensor_candidates() {
                let _ =
                    writeln!(svg, r#"<circle cx="{:.1}" cy="{:.1}" r="1.5"/>"#, tx(p.x), ty(p.y));
            }
            let _ = writeln!(svg, "</g>");
        }

        // Sampled deployment.
        if let Some((s, g)) = self.sampled {
            let _ = writeln!(svg, r##"<g stroke="#1f6fd0" stroke-width="2" fill="none">"##);
            for (e, &m) in g.monitored().iter().enumerate() {
                if !m {
                    continue;
                }
                let (a, b) = s.dual().edge_faces[e];
                if let (Some(p), Some(q)) = (s.sensor_pos(a), s.sensor_pos(b)) {
                    let _ = writeln!(
                        svg,
                        r#"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}"/>"#,
                        tx(p.x),
                        ty(p.y),
                        tx(q.x),
                        ty(q.y)
                    );
                }
            }
            let _ = writeln!(svg, "</g>");
            let _ = writeln!(svg, r##"<g fill="#d03b2f">"##);
            for &f in g.sensors() {
                if let Some(p) = s.sensor_pos(f) {
                    let _ = writeln!(
                        svg,
                        r#"<circle cx="{:.1}" cy="{:.1}" r="3.5"/>"#,
                        tx(p.x),
                        ty(p.y)
                    );
                }
            }
            let _ = writeln!(svg, "</g>");
        }

        svg.push_str("</svg>\n");
        svg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampled::Connectivity;
    use crate::scenario::{Scenario, ScenarioConfig};
    use stq_mobility::trajectory::WorkloadMix;

    fn setup() -> (Scenario, SampledGraph) {
        let s = Scenario::build(ScenarioConfig {
            junctions: 100,
            mix: WorkloadMix { random_waypoint: 2, commuter: 0, transit: 0 },
            seed: 3,
            ..Default::default()
        });
        let cands = s.sensing.sensor_candidates();
        let ids = stq_sampling::sample(stq_sampling::SamplingMethod::Uniform, &cands, 12, 1);
        let faces: Vec<usize> = ids.into_iter().map(|x| x as usize).collect();
        let g = SampledGraph::from_sensors(&s.sensing, &faces, Connectivity::Triangulation);
        (s, g)
    }

    #[test]
    fn renders_valid_svg_document() {
        let (s, g) = setup();
        let svg = Scene::new(&s.sensing).with_sampled(&s.sensing, &g).to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // Contains all layers.
        assert!(svg.contains("#bbbbbb"), "roads layer");
        assert!(svg.contains("#1f6fd0"), "monitored links layer");
        assert!(svg.contains("#d03b2f"), "communication sensors layer");
        // One circle per communication sensor with a position.
        let reds = svg.split("#d03b2f").nth(1).unwrap();
        let red_circles = reds.split("</g>").next().unwrap().matches("<circle").count();
        assert_eq!(red_circles, g.sensors().len());
    }

    #[test]
    fn coordinates_inside_canvas() {
        let (s, _) = setup();
        let svg = Scene::new(&s.sensing).to_svg();
        // Extract the canvas size.
        let w: f64 =
            svg.split("width=\"").nth(1).unwrap().split('"').next().unwrap().parse().unwrap();
        let h: f64 =
            svg.split("height=\"").nth(1).unwrap().split('"').next().unwrap().parse().unwrap();
        for part in svg.split("cx=\"").skip(1) {
            let x: f64 = part.split('"').next().unwrap().parse().unwrap();
            assert!(x >= -1.0 && x <= w + 1.0);
        }
        for part in svg.split("cy=\"").skip(1) {
            let y: f64 = part.split('"').next().unwrap().parse().unwrap();
            assert!(y >= -1.0 && y <= h + 1.0);
        }
    }

    #[test]
    fn empty_scene_is_still_valid() {
        let scene = Scene { sensing: None, sampled: None, width: 100.0 };
        let svg = scene.to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("</svg>"));
    }
}
