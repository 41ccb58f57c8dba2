//! Region profiles standing in for the OpenStreetMap extracts of the paper.
//!
//! The paper evaluates on points of interest from four regions (California
//! coast, New York City, Japan, Iberian Peninsula) with range-query
//! workloads derived from Gowalla check-ins in the same regions. Neither
//! dataset ships with this repository, so each region is replaced by a
//! seeded synthetic profile that reproduces the properties the indexes
//! actually react to: multi-modal spatial skew for the data and a
//! *differently*-skewed, more concentrated distribution for the query
//! centres. The `dataset` (OSM-POI stand-in) and `queries` (Gowalla
//! check-in stand-in) module docs say what each generator draws.

/// A Gaussian-ish cluster of the synthetic mixture.
#[derive(Debug, Clone, Copy)]
pub struct Cluster {
    /// Cluster centre (unit-square coordinates).
    pub center: (f64, f64),
    /// Standard deviation along x.
    pub spread_x: f64,
    /// Standard deviation along y.
    pub spread_y: f64,
    /// Relative weight of the cluster within its mixture.
    pub weight: f64,
}

impl Cluster {
    const fn new(center: (f64, f64), spread_x: f64, spread_y: f64, weight: f64) -> Self {
        Self {
            center,
            spread_x,
            spread_y,
            weight,
        }
    }
}

/// The four evaluation regions of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// California coast: an elongated coastal corridor with two metropolitan
    /// concentrations.
    CaliNev,
    /// New York City: very dense urban core with satellite clusters.
    NewYork,
    /// Japan: an archipelago-shaped chain of dense corridors.
    Japan,
    /// Iberian Peninsula: dispersed mid-sized clusters with coastal bias.
    Iberia,
}

impl Region {
    /// All regions in the order the paper's figures list them.
    pub const ALL: [Region; 4] = [
        Region::CaliNev,
        Region::NewYork,
        Region::Japan,
        Region::Iberia,
    ];

    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Region::CaliNev => "CaliNev",
            Region::NewYork => "NewYork",
            Region::Japan => "Japan",
            Region::Iberia => "Iberia",
        }
    }

    /// Deterministic base seed for the region's generators.
    pub fn seed(&self) -> u64 {
        match self {
            Region::CaliNev => 0x0CA1,
            Region::NewYork => 0x4E59,
            Region::Japan => 0x4A50,
            Region::Iberia => 0x1BE1,
        }
    }

    /// Mixture describing the *data* distribution (OSM-POI stand-in).
    pub fn data_clusters(&self) -> Vec<Cluster> {
        match self {
            // Elongated coastal corridor: clusters along a diagonal band.
            Region::CaliNev => vec![
                Cluster::new((0.15, 0.75), 0.04, 0.08, 3.0),
                Cluster::new((0.25, 0.60), 0.05, 0.06, 2.0),
                Cluster::new((0.40, 0.45), 0.06, 0.05, 1.5),
                Cluster::new((0.55, 0.30), 0.05, 0.06, 2.5),
                Cluster::new((0.70, 0.18), 0.04, 0.04, 2.0),
                Cluster::new((0.85, 0.40), 0.10, 0.12, 0.8),
            ],
            // Dense core plus boroughs.
            Region::NewYork => vec![
                Cluster::new((0.50, 0.50), 0.03, 0.05, 5.0),
                Cluster::new((0.58, 0.44), 0.04, 0.04, 2.5),
                Cluster::new((0.42, 0.58), 0.05, 0.04, 2.0),
                Cluster::new((0.62, 0.62), 0.06, 0.06, 1.2),
                Cluster::new((0.35, 0.35), 0.08, 0.08, 1.0),
            ],
            // Archipelago chain from south-west to north-east.
            Region::Japan => vec![
                Cluster::new((0.20, 0.25), 0.05, 0.04, 1.5),
                Cluster::new((0.35, 0.35), 0.05, 0.05, 2.0),
                Cluster::new((0.50, 0.45), 0.04, 0.04, 3.0),
                Cluster::new((0.62, 0.55), 0.03, 0.04, 3.5),
                Cluster::new((0.72, 0.68), 0.04, 0.05, 2.0),
                Cluster::new((0.85, 0.82), 0.05, 0.07, 1.0),
                Cluster::new((0.30, 0.60), 0.09, 0.09, 0.6),
            ],
            // Dispersed clusters with coastal emphasis.
            Region::Iberia => vec![
                Cluster::new((0.25, 0.70), 0.06, 0.06, 2.0),
                Cluster::new((0.15, 0.40), 0.05, 0.07, 1.8),
                Cluster::new((0.45, 0.55), 0.07, 0.07, 1.5),
                Cluster::new((0.65, 0.30), 0.05, 0.05, 2.2),
                Cluster::new((0.80, 0.65), 0.06, 0.05, 1.6),
                Cluster::new((0.55, 0.80), 0.07, 0.06, 1.2),
            ],
        }
    }

    /// Mixture describing the *query-centre* distribution (Gowalla check-in
    /// stand-in). Deliberately more concentrated than, and offset from, the
    /// data mixture — the paper's central premise is that the query workload
    /// is skewed differently from the data.
    pub fn query_clusters(&self) -> Vec<Cluster> {
        match self {
            Region::CaliNev => vec![
                Cluster::new((0.22, 0.63), 0.025, 0.035, 4.0),
                Cluster::new((0.57, 0.27), 0.030, 0.030, 3.0),
                Cluster::new((0.72, 0.20), 0.020, 0.020, 1.5),
            ],
            Region::NewYork => vec![
                Cluster::new((0.52, 0.47), 0.015, 0.020, 6.0),
                Cluster::new((0.45, 0.56), 0.020, 0.020, 2.0),
            ],
            Region::Japan => vec![
                Cluster::new((0.63, 0.56), 0.015, 0.020, 5.0),
                Cluster::new((0.51, 0.46), 0.020, 0.020, 3.0),
                Cluster::new((0.36, 0.36), 0.025, 0.025, 1.5),
            ],
            Region::Iberia => vec![
                Cluster::new((0.27, 0.68), 0.030, 0.030, 3.0),
                Cluster::new((0.66, 0.31), 0.025, 0.025, 3.0),
                Cluster::new((0.47, 0.57), 0.030, 0.030, 1.5),
            ],
        }
    }

    /// Fraction of data points drawn from a uniform background instead of a
    /// cluster (rural POIs).
    pub fn background_fraction(&self) -> f64 {
        match self {
            Region::CaliNev => 0.15,
            Region::NewYork => 0.05,
            Region::Japan => 0.10,
            Region::Iberia => 0.20,
        }
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_regions_have_distinct_profiles() {
        for region in Region::ALL {
            assert!(!region.data_clusters().is_empty());
            assert!(!region.query_clusters().is_empty());
            assert!(region.query_clusters().len() < region.data_clusters().len() + 1);
            assert!((0.0..1.0).contains(&region.background_fraction()));
            assert!(!region.name().is_empty());
            assert_eq!(format!("{region}"), region.name());
        }
        // Seeds must be distinct so datasets are not accidentally identical.
        let mut seeds: Vec<u64> = Region::ALL.iter().map(Region::seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn cluster_weights_are_positive_and_inside_unit_square() {
        for region in Region::ALL {
            for c in region
                .data_clusters()
                .into_iter()
                .chain(region.query_clusters())
            {
                assert!(c.weight > 0.0);
                assert!((0.0..=1.0).contains(&c.center.0));
                assert!((0.0..=1.0).contains(&c.center.1));
                assert!(c.spread_x > 0.0 && c.spread_y > 0.0);
            }
        }
    }
}
