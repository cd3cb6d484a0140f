// Fixture: seeded d5 (hook-pattern) violations. The observability probe
// must be held as `Option<Probe>` and attached through `attach_probe` so the
// audit/trace/telemetry features stay purely observational.

pub struct Component {
    probe: Probe,                             // VIOLATION: hook-pattern
    qualified: wsg_sim::probe::Probe,         // VIOLATION: hook-pattern
    ok_probe: Option<Probe>,                  // fine: optional handle
    ok_qualified: Option<wsg_sim::probe::Probe>, // fine: optional handle
}

impl Component {
    pub fn attach_probe(&mut self, probe: Probe) {
        // fine above: a signature takes the handle by value to store it.
        self.ok_probe = Some(probe);
    }

    pub fn attach(&mut self, table: &mut SiteTable) {
        self.ok_probe = Some(Probe::unclaimed(table)); // fine: path expression
    }
}
