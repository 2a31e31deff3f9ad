//! Geographic positions, great-circle distances and propagation delays.
//!
//! The paper computes inter-node distances with the Haversine formula \[19\]
//! and converts them to propagation delays with a signal speed of
//! 2×10⁸ m/s \[20\]. This module reproduces both.

/// Mean Earth radius in kilometers (IUGG value).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Propagation speed inside fiber, in kilometers per millisecond
/// (2×10⁸ m/s = 200 km/ms), following the paper's reference \[20\].
pub const PROPAGATION_KM_PER_MS: f64 = 200.0;

/// A point on the Earth's surface, in degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north.
    pub latitude: f64,
    /// Longitude in degrees, positive east.
    pub longitude: f64,
}

impl GeoPoint {
    /// Creates a point from latitude/longitude in degrees.
    ///
    /// Values are taken as-is; callers should keep latitude within ±90 and
    /// longitude within ±180 for meaningful distances.
    pub fn new(latitude: f64, longitude: f64) -> Self {
        GeoPoint {
            latitude,
            longitude,
        }
    }

    /// Great-circle distance to `other` in kilometers, via the Haversine
    /// formula.
    ///
    /// # Example
    ///
    /// ```
    /// use pm_topo::GeoPoint;
    /// let nyc = GeoPoint::new(40.7128, -74.0060);
    /// let la = GeoPoint::new(34.0522, -118.2437);
    /// let d = nyc.haversine_km(&la);
    /// assert!((d - 3936.0).abs() < 25.0); // ~3936 km
    /// ```
    pub fn haversine_km(&self, other: &GeoPoint) -> f64 {
        let cos_lat = |p: &GeoPoint| p.latitude.to_radians().cos();
        arc_km(self.haversine_a(cos_lat(self), other, cos_lat(other)))
    }

    /// The Haversine term `a` of [`GeoPoint::haversine_km`], clamped to
    /// `[0, 1]`, given each point's `cos(latitude)` precomputed. The
    /// distance is [`arc_km`] of it, bit for bit `haversine_km`; `arc_km`
    /// is monotone, so the largest `a` of a set of pairs gives its largest
    /// distance.
    pub(crate) fn haversine_a(&self, cos_lat: f64, other: &GeoPoint, other_cos_lat: f64) -> f64 {
        let dlat = (other.latitude - self.latitude).to_radians();
        let dlon = (other.longitude - self.longitude).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + cos_lat * other_cos_lat * (dlon / 2.0).sin().powi(2);
        // Clamp to guard against floating-point drift outside [0, 1].
        a.clamp(0.0, 1.0)
    }

    /// Bounds `(lo, hi)` on [`GeoPoint::haversine_a`] from a few
    /// multiplications, no trigonometry: `x²(1 − x²/3) ≤ sin²x ≤ x²`,
    /// widened by a relative slack far above the rounding error of either
    /// side. Points whose cosines have opposite signs (latitudes beyond
    /// ±90°) get the trivial `(0, ∞)`.
    #[inline]
    pub(crate) fn haversine_a_bounds(
        &self,
        cos_lat: f64,
        other: &GeoPoint,
        other_cos_lat: f64,
    ) -> (f64, f64) {
        const SLACK: f64 = 1e-9;
        let cc = cos_lat * other_cos_lat;
        if cc < 0.0 {
            return (0.0, f64::INFINITY);
        }
        let half_sq = |d: f64| (d.to_radians() / 2.0).powi(2);
        let (x2, y2) = (
            half_sq(other.latitude - self.latitude),
            half_sq(other.longitude - self.longitude),
        );
        let lo = x2 * (1.0 - x2 / 3.0) + cc * y2 * (1.0 - y2 / 3.0);
        let hi = x2 + cc * y2;
        (lo * (1.0 - SLACK), hi * (1.0 + SLACK))
    }

    /// One-way propagation delay to `other` in milliseconds, assuming the
    /// great-circle distance is traversed at [`PROPAGATION_KM_PER_MS`].
    ///
    /// # Example
    ///
    /// ```
    /// use pm_topo::GeoPoint;
    /// let a = GeoPoint::new(0.0, 0.0);
    /// let b = GeoPoint::new(0.0, 1.0); // ~111.2 km along the equator
    /// assert!((a.propagation_delay_ms(&b) - 0.556).abs() < 0.01);
    /// ```
    pub fn propagation_delay_ms(&self, other: &GeoPoint) -> f64 {
        self.haversine_km(other) / PROPAGATION_KM_PER_MS
    }
}

/// The great-circle distance in kilometers of a clamped Haversine term
/// `a` (see [`GeoPoint::haversine_a`]).
pub(crate) fn arc_km(a: f64) -> f64 {
    2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let p = GeoPoint::new(39.0, -77.0);
        assert_eq!(p.haversine_km(&p), 0.0);
        assert_eq!(p.propagation_delay_ms(&p), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = GeoPoint::new(47.6, -122.3);
        let b = GeoPoint::new(25.8, -80.2);
        assert!((a.haversine_km(&b) - b.haversine_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn known_distance_equator_degree() {
        // One degree of longitude at the equator is ~111.19 km.
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 1.0);
        assert!((a.haversine_km(&b) - 111.195).abs() < 0.05);
    }

    #[test]
    fn antipodal_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((a.haversine_km(&b) - half).abs() < 1.0);
    }

    #[test]
    fn delay_matches_distance() {
        let a = GeoPoint::new(41.9, -87.6); // Chicago
        let b = GeoPoint::new(33.7, -84.4); // Atlanta
        let km = a.haversine_km(&b);
        assert!((a.propagation_delay_ms(&b) - km / 200.0).abs() < 1e-12);
    }

    #[test]
    fn triangle_inequality_sample() {
        let a = GeoPoint::new(40.7, -74.0);
        let b = GeoPoint::new(41.9, -87.6);
        let c = GeoPoint::new(34.0, -118.2);
        assert!(a.haversine_km(&c) <= a.haversine_km(&b) + b.haversine_km(&c) + 1e-9);
    }
}
