//! Traffic scenario configuration and validation.
//!
//! A [`TrafficConfig`] is the complete, seedable description of one
//! production-traffic scenario: *when* transactions arrive (the
//! open-loop [`ArrivalConfig`]), *which* keys they fight over (the
//! [`PopularityConfig`] contention model), and *what* each transaction
//! does (the [`ShapeConfig`] application shape). The same config and
//! seed always synthesize the identical trace. Arrival timestamps are
//! abstract ticks; backends scale them (cycles per tick in the
//! simulator, nanoseconds per tick on real threads).
//!
//! Validation follows the [`tcc_core::SystemConfig::validate`] style:
//! degenerate parameters are rejected up front with a
//! [`ConfigError`] naming the offending field and how to fix it,
//! instead of surfacing later as a hung generator or a divide-by-zero
//! deep inside synthesis.

use tcc_core::ConfigError;

/// Open-loop arrival process: *when* requests arrive, independent of
/// how fast the system retires them (the opposite of the closed-loop
/// "next transaction when the last commits" the paper's apps use).
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalConfig {
    /// Memoryless arrivals: exponential inter-arrival times with the
    /// given mean, in ticks.
    Poisson { mean_interarrival_ticks: f64 },
    /// Two-state Markov-modulated Poisson process: `calm` and `burst`
    /// states with different mean inter-arrivals, dwelling in each
    /// state for an exponentially distributed number of ticks.
    Bursty {
        calm_interarrival_ticks: f64,
        burst_interarrival_ticks: f64,
        mean_dwell_ticks: f64,
    },
    /// Poisson arrivals under a diurnal envelope: the instantaneous
    /// rate swings by `±amplitude` around the base rate with the given
    /// period (a compressed "day").
    Diurnal {
        mean_interarrival_ticks: f64,
        period_ticks: u64,
        amplitude: f64,
    },
}

/// Key-popularity model: *which* keys transactions touch, i.e. the
/// contention skew the commit protocol has to arbitrate.
#[derive(Debug, Clone, PartialEq)]
pub enum PopularityConfig {
    /// Every key equally likely.
    Uniform { n_keys: usize },
    /// Zipfian(θ) skew: rank 0 is the hottest key.
    Zipfian { n_keys: usize, theta: f64 },
    /// Zipfian skew whose hot set *walks*: the rank→key mapping
    /// rotates by `stride` keys every `period_ticks`, so cached
    /// hot-key placement goes stale over time.
    HotMigration {
        n_keys: usize,
        theta: f64,
        period_ticks: u64,
        stride: usize,
    },
}

impl PopularityConfig {
    /// Size of the popularity domain (keys for KV, nodes for graph,
    /// items for OLTP).
    #[must_use]
    pub fn n_keys(&self) -> usize {
        match *self {
            PopularityConfig::Uniform { n_keys }
            | PopularityConfig::Zipfian { n_keys, .. }
            | PopularityConfig::HotMigration { n_keys, .. } => n_keys,
        }
    }
}

/// Number of districts per OLTP warehouse (TPC-C's fixed 10).
pub const OLTP_DISTRICTS: usize = 10;
/// Customers per district in the lite OLTP shape.
pub const OLTP_CUSTOMERS: usize = 30;
/// Order-ring slots per district (new-order writes rotate through
/// them, modelling an append-mostly order table).
pub const OLTP_ORDER_SLOTS: usize = 64;

/// Transaction shape: *what* one arrival does to the key space.
#[derive(Debug, Clone, PartialEq)]
pub enum ShapeConfig {
    /// Key-value read/write mix over the popularity domain. Writes are
    /// read-modify-writes, the conflict shape the protocol arbitrates.
    Kv {
        reads_per_tx: usize,
        writes_per_tx: usize,
    },
    /// Graph traversal: neighbor expansion from a popularity-sampled
    /// start node over an implicit hashed adjacency, with a bias
    /// toward a small set of hot supernodes (grounded in the sombra
    /// graph-DB related repo's supernode skew).
    Graph {
        /// Neighbors read per expansion level.
        fanout: usize,
        /// Expansion levels walked.
        depth: usize,
        /// Size of the hot supernode set (node ids `0..supernodes`).
        supernodes: usize,
        /// Probability an edge lands on a supernode instead of a
        /// hash-uniform neighbor.
        supernode_bias: f64,
    },
    /// TPC-C-lite OLTP: a mix of new-order (district counter bump +
    /// Zipfian stock updates + order-ring append) and payment
    /// (warehouse/district/customer balance updates) transactions.
    Oltp {
        warehouses: usize,
        /// Stock items (the popularity domain: skewed item demand).
        items: usize,
        /// Fraction of arrivals that are new-order (the rest are
        /// payment).
        new_order_frac: f64,
    },
}

/// One complete scenario: name, seed, and the three model axes.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Scenario name, recorded in the trace and in run reports.
    pub scenario: String,
    /// Master seed; every synthesis stream derives from it.
    pub seed: u64,
    pub arrival: ArrivalConfig,
    pub popularity: PopularityConfig,
    pub shape: ShapeConfig,
}

fn err(field: &'static str, problem: impl Into<String>, hint: &'static str) -> ConfigError {
    ConfigError::invalid(field, problem, hint)
}

fn check_interarrival(field: &'static str, v: f64) -> Result<(), ConfigError> {
    if !(v.is_finite() && v > 0.0) {
        return Err(err(
            field,
            format!("mean inter-arrival {v} ticks means a zero (or undefined) arrival rate"),
            "use a positive, finite mean inter-arrival time in ticks",
        ));
    }
    Ok(())
}

impl TrafficConfig {
    /// Total logical key space the scenario's transactions address —
    /// the popularity domain for KV and graph shapes, the derived
    /// record layout for OLTP (warehouses + districts + customers +
    /// stock + order ring).
    #[must_use]
    pub fn key_space(&self) -> usize {
        match self.shape {
            ShapeConfig::Kv { .. } | ShapeConfig::Graph { .. } => self.popularity.n_keys(),
            ShapeConfig::Oltp {
                warehouses, items, ..
            } => OltpLayout::new(warehouses, items).total,
        }
    }

    /// Rejects degenerate parameters with a field+hint error, in the
    /// [`tcc_core::SystemConfig::validate`] style. Called by
    /// [`crate::synthesize`]; call it directly to vet
    /// externally-sourced scenario configs before spending synthesis
    /// time on them.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for: a zero or non-finite arrival
    /// rate, a degenerate burst dwell, a diurnal amplitude outside
    /// `[0, 1)` or a zero period, an empty key space, a Zipfian
    /// exponent θ ≤ 0 (use `Uniform` for no skew), a hot-set
    /// migration period or stride of 0, an empty transaction shape,
    /// and OLTP item/warehouse counts of zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match &self.arrival {
            ArrivalConfig::Poisson {
                mean_interarrival_ticks,
            } => check_interarrival("arrival.mean_interarrival_ticks", *mean_interarrival_ticks)?,
            ArrivalConfig::Bursty {
                calm_interarrival_ticks,
                burst_interarrival_ticks,
                mean_dwell_ticks,
            } => {
                check_interarrival("arrival.calm_interarrival_ticks", *calm_interarrival_ticks)?;
                check_interarrival(
                    "arrival.burst_interarrival_ticks",
                    *burst_interarrival_ticks,
                )?;
                if !(mean_dwell_ticks.is_finite() && *mean_dwell_ticks > 0.0) {
                    return Err(err(
                        "arrival.mean_dwell_ticks",
                        "a zero dwell time flips burst state every arrival",
                        "use a positive mean dwell, large relative to the inter-arrival",
                    ));
                }
            }
            ArrivalConfig::Diurnal {
                mean_interarrival_ticks,
                period_ticks,
                amplitude,
            } => {
                check_interarrival("arrival.mean_interarrival_ticks", *mean_interarrival_ticks)?;
                if *period_ticks == 0 {
                    return Err(err(
                        "arrival.period_ticks",
                        "a zero-period envelope is undefined",
                        "use a period much longer than the mean inter-arrival",
                    ));
                }
                if !(0.0..1.0).contains(amplitude) {
                    return Err(err(
                        "arrival.amplitude",
                        format!("amplitude {amplitude} leaves the [0, 1) envelope"),
                        "use 0.0 <= amplitude < 1.0 so the rate never reaches zero",
                    ));
                }
            }
        }
        if self.popularity.n_keys() == 0 {
            return Err(err(
                "popularity.n_keys",
                "an empty key space gives transactions nothing to touch",
                "use n_keys >= 1",
            ));
        }
        match &self.popularity {
            PopularityConfig::Uniform { .. } => {}
            PopularityConfig::Zipfian { theta, .. } => {
                if !(theta.is_finite() && *theta > 0.0) {
                    return Err(err(
                        "popularity.theta",
                        format!("θ = {theta} is not a skew"),
                        "use θ > 0 for Zipfian skew, or the Uniform model for none",
                    ));
                }
            }
            PopularityConfig::HotMigration {
                theta,
                period_ticks,
                stride,
                ..
            } => {
                if !(theta.is_finite() && *theta > 0.0) {
                    return Err(err(
                        "popularity.theta",
                        format!("θ = {theta} is not a skew"),
                        "use θ > 0 for Zipfian skew, or the Uniform model for none",
                    ));
                }
                if *period_ticks == 0 {
                    return Err(err(
                        "popularity.period_ticks",
                        "a migration period of 0 makes the hot-set position undefined",
                        "use a period of at least one tick (typically thousands)",
                    ));
                }
                if *stride == 0 {
                    return Err(err(
                        "popularity.stride",
                        "a zero stride never moves the hot set — that is plain Zipfian",
                        "use stride >= 1, or the Zipfian model if migration is unwanted",
                    ));
                }
            }
        }
        match &self.shape {
            ShapeConfig::Kv {
                reads_per_tx,
                writes_per_tx,
            } => {
                if reads_per_tx + writes_per_tx == 0 {
                    return Err(err(
                        "shape.reads_per_tx",
                        "empty transactions measure nothing",
                        "use reads_per_tx + writes_per_tx >= 1",
                    ));
                }
            }
            ShapeConfig::Graph {
                fanout,
                depth,
                supernodes,
                supernode_bias,
            } => {
                if *fanout == 0 || *depth == 0 {
                    return Err(err(
                        "shape.fanout",
                        "a zero fanout or depth expands no neighbors",
                        "use fanout >= 1 and depth >= 1",
                    ));
                }
                if *supernodes == 0 || *supernodes > self.popularity.n_keys() {
                    return Err(err(
                        "shape.supernodes",
                        format!(
                            "{} supernodes in a {}-node graph",
                            supernodes,
                            self.popularity.n_keys()
                        ),
                        "use 1 <= supernodes <= n_keys",
                    ));
                }
                if !(0.0..=1.0).contains(supernode_bias) {
                    return Err(err(
                        "shape.supernode_bias",
                        format!("bias {supernode_bias} is not a probability"),
                        "use 0.0 <= supernode_bias <= 1.0",
                    ));
                }
            }
            ShapeConfig::Oltp {
                warehouses,
                items,
                new_order_frac,
            } => {
                if *warehouses == 0 {
                    return Err(err(
                        "shape.warehouses",
                        "an OLTP system with no warehouses has no records",
                        "use warehouses >= 1",
                    ));
                }
                if *items == 0 {
                    return Err(err(
                        "shape.items",
                        "new-order transactions need stock items to order",
                        "use items >= 1",
                    ));
                }
                if !(0.0..=1.0).contains(new_order_frac) {
                    return Err(err(
                        "shape.new_order_frac",
                        format!("fraction {new_order_frac} is not a probability"),
                        "use 0.0 <= new_order_frac <= 1.0",
                    ));
                }
                if *items != self.popularity.n_keys() {
                    return Err(err(
                        "popularity.n_keys",
                        format!(
                            "popularity domain ({}) must equal the OLTP item count ({})",
                            self.popularity.n_keys(),
                            items
                        ),
                        "point the popularity model at the stock items: n_keys == items",
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Key-space layout of the OLTP shape: contiguous regions for each
/// record class, addressed as logical keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OltpLayout {
    pub warehouses: usize,
    pub items: usize,
    /// `[0, warehouses)`: warehouse YTD records.
    pub warehouse_base: usize,
    /// `[warehouse_base + W, …)`: district records (next-order id +
    /// YTD), `OLTP_DISTRICTS` per warehouse.
    pub district_base: usize,
    /// Customer balance records, `OLTP_CUSTOMERS` per district.
    pub customer_base: usize,
    /// Stock records, one per item.
    pub stock_base: usize,
    /// Order-ring slots, `OLTP_ORDER_SLOTS` per district.
    pub order_base: usize,
    /// Total key-space size.
    pub total: usize,
}

impl OltpLayout {
    #[must_use]
    pub fn new(warehouses: usize, items: usize) -> OltpLayout {
        let districts = warehouses * OLTP_DISTRICTS;
        let warehouse_base = 0;
        let district_base = warehouse_base + warehouses;
        let customer_base = district_base + districts;
        let stock_base = customer_base + districts * OLTP_CUSTOMERS;
        let order_base = stock_base + items;
        let total = order_base + districts * OLTP_ORDER_SLOTS;
        OltpLayout {
            warehouses,
            items,
            warehouse_base,
            district_base,
            customer_base,
            stock_base,
            order_base,
            total,
        }
    }

    #[must_use]
    pub fn warehouse(&self, w: usize) -> u64 {
        (self.warehouse_base + w) as u64
    }

    #[must_use]
    pub fn district(&self, w: usize, d: usize) -> u64 {
        (self.district_base + w * OLTP_DISTRICTS + d) as u64
    }

    #[must_use]
    pub fn customer(&self, w: usize, d: usize, c: usize) -> u64 {
        (self.customer_base + (w * OLTP_DISTRICTS + d) * OLTP_CUSTOMERS + c) as u64
    }

    #[must_use]
    pub fn stock(&self, item: usize) -> u64 {
        (self.stock_base + item) as u64
    }

    #[must_use]
    pub fn order_slot(&self, w: usize, d: usize, slot: usize) -> u64 {
        (self.order_base + (w * OLTP_DISTRICTS + d) * OLTP_ORDER_SLOTS + slot % OLTP_ORDER_SLOTS)
            as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    #[test]
    fn all_preset_scenarios_validate() {
        for cfg in scenarios::all() {
            cfg.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.scenario));
            assert!(cfg.key_space() > 0);
        }
    }

    #[test]
    fn degenerate_parameters_are_rejected_with_field_and_hint() {
        let base = scenarios::zipfian_steady();

        let mut c = base.clone();
        c.arrival = ArrivalConfig::Poisson {
            mean_interarrival_ticks: 0.0,
        };
        let e = c.validate().unwrap_err();
        assert_eq!(e.field(), "arrival.mean_interarrival_ticks");
        assert!(!e.hint().is_empty());

        let mut c = base.clone();
        c.popularity = PopularityConfig::Zipfian {
            n_keys: 1024,
            theta: 0.0,
        };
        assert_eq!(c.validate().unwrap_err().field(), "popularity.theta");
        c.popularity = PopularityConfig::Zipfian {
            n_keys: 1024,
            theta: -0.5,
        };
        assert_eq!(c.validate().unwrap_err().field(), "popularity.theta");

        let mut c = base.clone();
        c.popularity = PopularityConfig::Uniform { n_keys: 0 };
        assert_eq!(c.validate().unwrap_err().field(), "popularity.n_keys");

        let mut c = base.clone();
        c.popularity = PopularityConfig::HotMigration {
            n_keys: 1024,
            theta: 1.0,
            period_ticks: 0,
            stride: 8,
        };
        assert_eq!(c.validate().unwrap_err().field(), "popularity.period_ticks");
        c.popularity = PopularityConfig::HotMigration {
            n_keys: 1024,
            theta: 1.0,
            period_ticks: 1000,
            stride: 0,
        };
        assert_eq!(c.validate().unwrap_err().field(), "popularity.stride");

        let mut c = base.clone();
        c.shape = ShapeConfig::Kv {
            reads_per_tx: 0,
            writes_per_tx: 0,
        };
        assert_eq!(c.validate().unwrap_err().field(), "shape.reads_per_tx");

        let mut c = base;
        c.arrival = ArrivalConfig::Diurnal {
            mean_interarrival_ticks: 50.0,
            period_ticks: 0,
            amplitude: 0.5,
        };
        assert_eq!(c.validate().unwrap_err().field(), "arrival.period_ticks");
        c.arrival = ArrivalConfig::Diurnal {
            mean_interarrival_ticks: 50.0,
            period_ticks: 1000,
            amplitude: 1.0,
        };
        assert_eq!(c.validate().unwrap_err().field(), "arrival.amplitude");
    }

    #[test]
    fn config_errors_render_in_the_system_config_style() {
        let mut c = scenarios::zipfian_steady();
        c.popularity = PopularityConfig::Zipfian {
            n_keys: 64,
            theta: -1.0,
        };
        let msg = c.validate().unwrap_err().to_string();
        assert!(msg.contains("popularity.theta"), "{msg}");
        assert!(msg.contains("fix:"), "{msg}");
    }

    #[test]
    fn oltp_layout_regions_are_disjoint_and_cover_total() {
        let l = OltpLayout::new(4, 1000);
        assert!(l.warehouse(3) < l.district(0, 0));
        assert!(l.district(3, 9) < l.customer(0, 0, 0));
        assert!(l.customer(3, 9, 29) < l.stock(0));
        assert!(l.stock(999) < l.order_slot(0, 0, 0));
        assert_eq!(
            l.order_slot(3, 9, OLTP_ORDER_SLOTS - 1) as usize + 1,
            l.total
        );
        // The ring wraps instead of escaping its region.
        assert_eq!(l.order_slot(0, 0, OLTP_ORDER_SLOTS), l.order_slot(0, 0, 0));
    }

    #[test]
    fn oltp_popularity_must_cover_items() {
        let mut c = scenarios::oltp_order_payment();
        if let PopularityConfig::Zipfian { n_keys, .. } = &mut c.popularity {
            *n_keys += 1;
        }
        assert_eq!(c.validate().unwrap_err().field(), "popularity.n_keys");
    }
}
