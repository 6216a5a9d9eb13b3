package pisa

import (
	"strconv"

	"repro/internal/telemetry"
)

// switchMetrics holds the data plane's pre-registered telemetry handles.
// The zero value (all nil handles) is the uninstrumented mode: every method
// call on a nil handle is a no-op, so the packet path carries no branch on
// an "enabled" flag and no map lookups.
type switchMetrics struct {
	packets    *telemetry.Counter
	mirrored   *telemetry.Counter
	collisions *telemetry.Counter
	dumpTuples *telemetry.Counter
	dynUpdates *telemetry.Counter
	// screenFrames and screenEntered are the two ends of the leading-filter
	// prescreen: runnable frames offered to instances that have one, and the
	// frames that survived it into the instance's first table behind it.
	screenFrames  *telemetry.Counter
	screenEntered *telemetry.Counter
	regUsed       *telemetry.Gauge
	regCapacity   *telemetry.Gauge
}

// Instrument registers the switch's metrics against reg (nil disables) as
// switch number shard of its deployment (the runtime numbers its switches
// shard×VantagePoints+vp). Counter families are shared across switches — the
// registry returns the same handle for the same (family, labels), so
// per-switch increments fold into one total. The register gauges are Set
// (not added), so they carry a shard label that keeps each switch's
// occupancy and capacity as its own series. Call once after NewSwitch; the
// capacity gauge is fixed at that point, occupancy updates at every window
// boundary.
func (sw *Switch) Instrument(reg *telemetry.Registry, shard int) {
	label := strconv.Itoa(shard)
	sw.m = switchMetrics{
		packets: reg.Counter("sonata_switch_packets_total",
			"Frames processed by the data plane."),
		mirrored: reg.Counter("sonata_switch_mirrored_total",
			"Mirror reports sent out the monitoring port."),
		collisions: reg.Counter("sonata_switch_collisions_total",
			"Stateful updates that overflowed all register chains."),
		dumpTuples: reg.Counter("sonata_switch_dump_tuples_total",
			"Aggregated (key, value) pairs dumped at window boundaries."),
		dynUpdates: reg.Counter("sonata_switch_dyn_table_updates_total",
			"Dynamic filter entries written by refinement updates."),
		screenFrames: reg.Counter("sonata_pisa_prescreen_frames_total",
			"Runnable frames offered to instances guarded by leading filters, summed over those instances.", "shard", label),
		screenEntered: reg.Counter("sonata_pisa_prescreen_entered_total",
			"Frames that passed an instance's leading filters into its first table behind them.", "shard", label),
		regUsed: reg.Gauge("sonata_switch_register_entries_used",
			"Register slots occupied at the last window boundary.", "shard", label),
		regCapacity: reg.Gauge("sonata_switch_register_entries_capacity",
			"Total register slots across all installed banks.", "shard", label),
	}
	sw.m.regCapacity.Set(sw.registerCapacity())
}

// registerCapacity totals the slots of every installed bank.
func (sw *Switch) registerCapacity() int64 {
	var total int64
	for _, st := range sw.insts {
		for _, bank := range st.banks {
			if bank != nil {
				total += int64(bank.Capacity())
			}
		}
	}
	return total
}

// registerOccupancy totals the keys currently stored across banks.
func (sw *Switch) registerOccupancy() int64 {
	var total int64
	for _, st := range sw.insts {
		for _, bank := range st.banks {
			if bank != nil {
				total += int64(bank.Stored())
			}
		}
	}
	return total
}
