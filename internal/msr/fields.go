package msr

import (
	"fmt"
	"math"

	"dufp/internal/units"
)

// Units holds the decoded RAPL unit multipliers from MSR_RAPL_POWER_UNIT.
type Units struct {
	// PowerUnit is the value of one LSB of a power field, in watts.
	PowerUnit units.Power
	// EnergyUnit is the value of one LSB of an energy counter, in joules.
	EnergyUnit units.Energy
	// TimeUnit is the value of one LSB of a time field, in seconds.
	TimeUnit float64
}

// DefaultUnitsValue is the MSR_RAPL_POWER_UNIT raw value observed on
// Skylake-SP: power unit 1/8 W (PU=3), energy unit ~61 µJ (ESU=14), time
// unit ~977 µs (TU=10).
const DefaultUnitsValue uint64 = 10<<16 | 14<<8 | 3

// DramEnergyUnit is the fixed DRAM energy counter resolution on Skylake-SP
// server parts (15.3 µJ), which overrides the package energy unit.
const DramEnergyUnit = units.Energy(15.3e-6)

// DecodeUnits interprets a raw MSR_RAPL_POWER_UNIT value.
func DecodeUnits(raw uint64) Units {
	pu := raw & 0xF
	esu := (raw >> 8) & 0x1F
	tu := (raw >> 16) & 0xF
	return Units{
		PowerUnit:  units.Power(1 / math.Exp2(float64(pu))),
		EnergyUnit: units.Energy(1 / math.Exp2(float64(esu))),
		TimeUnit:   1 / math.Exp2(float64(tu)),
	}
}

// DefaultUnits returns the decoded Skylake-SP RAPL units.
func DefaultUnits() Units { return DecodeUnits(DefaultUnitsValue) }

// PowerLimit is one RAPL constraint (PL1 long-term or PL2 short-term).
type PowerLimit struct {
	// Limit is the average power bound for this constraint.
	Limit units.Power
	// Window is the averaging window in seconds.
	Window float64
	// Enabled activates enforcement of this constraint.
	Enabled bool
	// Clamp allows the limiter to go below the OS-requested P-state.
	Clamp bool
}

// PkgPowerLimit is the decoded content of MSR_PKG_POWER_LIMIT.
type PkgPowerLimit struct {
	PL1, PL2 PowerLimit
	// Locked freezes the register until the next reset when set.
	Locked bool
}

// field offsets within MSR_PKG_POWER_LIMIT.
const (
	plPowerBits  = 15 // bits 14:0 power, bit 15 enable
	plEnableBit  = 15
	plClampBit   = 16
	plWindowLo   = 17 // bits 23:17 window (Y in 21:17, Z in 23:22)
	pl2Shift     = 32
	plLockBit    = 63
	plPowerMask  = (1 << 15) - 1
	plWindowMask = 0x7F
)

// EncodePkgPowerLimit builds the raw MSR_PKG_POWER_LIMIT value for l using
// the unit multipliers u. Power values saturate at the 15-bit field range;
// windows snap to the nearest representable 2^Y·(1+Z/4)·TU value.
func EncodePkgPowerLimit(u Units, l PkgPowerLimit) uint64 {
	lo := encodeConstraint(u, l.PL1)
	hi := encodeConstraint(u, l.PL2)
	v := lo | hi<<pl2Shift
	if l.Locked {
		v |= 1 << plLockBit
	}
	return v
}

func encodeConstraint(u Units, c PowerLimit) uint64 {
	p := uint64(0)
	if c.Limit > 0 {
		p = uint64(math.Round(float64(c.Limit) / float64(u.PowerUnit)))
		if p > plPowerMask {
			p = plPowerMask
		}
	}
	v := p
	if c.Enabled {
		v |= 1 << plEnableBit
	}
	if c.Clamp {
		v |= 1 << plClampBit
	}
	v |= uint64(encodeWindow(u, c.Window)) << plWindowLo
	return v
}

// windowSteps holds the 128 representable window multipliers
// 2^Y × (1 + Z/4), indexed y-major/z-minor (index Y·4 + Z). Every entry
// is an exact float64, so the table carries the same values a per-call
// math.Exp2 would produce, and it is strictly increasing.
var windowSteps = func() (t [128]float64) {
	for y := 0; y < 32; y++ {
		for z := 0; z < 4; z++ {
			t[y*4+z] = math.Exp2(float64(y)) * (1 + float64(z)/4)
		}
	}
	return t
}()

// encodeWindow maps a window in seconds to the 7-bit Y/Z encoding:
// window = 2^Y × (1 + Z/4) × TimeUnit, Y in bits 4:0, Z in bits 6:5. It
// picks the step nearest to the requested window, ties going to the
// first (smaller) step. The scan stops at the first step at or above the
// target: past it the rounded errors never decrease, so no later step
// can win the strict comparison.
func encodeWindow(u Units, w float64) uint8 {
	if w <= 0 || u.TimeUnit <= 0 {
		return 0
	}
	target := w / u.TimeUnit
	if target < 1 {
		target = 1
	}
	best := 0
	bestErr := math.Inf(1)
	// Range over the table's address: ranging over the array value
	// would copy all 1 KiB of it on every cap write.
	for i, got := range &windowSteps {
		if err := math.Abs(got - target); err < bestErr {
			bestErr, best = err, i
		}
		if got >= target {
			break
		}
	}
	return uint8(best/4 | best%4<<5)
}

func decodeWindow(u Units, bits uint8) float64 {
	y := bits & 0x1F
	z := (bits >> 5) & 0x3
	return windowSteps[int(y)*4+int(z)] * u.TimeUnit
}

// DecodePkgPowerLimit interprets a raw MSR_PKG_POWER_LIMIT value using the
// unit multipliers u.
func DecodePkgPowerLimit(u Units, raw uint64) PkgPowerLimit {
	return PkgPowerLimit{
		PL1:    decodeConstraint(u, raw),
		PL2:    decodeConstraint(u, raw>>pl2Shift),
		Locked: raw>>plLockBit&1 == 1,
	}
}

func decodeConstraint(u Units, half uint64) PowerLimit {
	return PowerLimit{
		Limit:   units.Power(float64(half&plPowerMask) * float64(u.PowerUnit)),
		Enabled: half>>plEnableBit&1 == 1,
		Clamp:   half>>plClampBit&1 == 1,
		Window:  decodeWindow(u, uint8(half>>plWindowLo&plWindowMask)),
	}
}

// UncoreRatioLimit is the decoded content of MSR_UNCORE_RATIO_LIMIT.
type UncoreRatioLimit struct {
	// Min and Max bound the uncore frequency band, in 100 MHz ratios.
	Min, Max uint8
}

// EncodeUncoreRatioLimit builds the raw register value: max ratio in bits
// 6:0, min ratio in bits 14:8.
func EncodeUncoreRatioLimit(l UncoreRatioLimit) uint64 {
	return uint64(l.Max&0x7F) | uint64(l.Min&0x7F)<<8
}

// DecodeUncoreRatioLimit interprets a raw MSR_UNCORE_RATIO_LIMIT value.
func DecodeUncoreRatioLimit(raw uint64) UncoreRatioLimit {
	return UncoreRatioLimit{
		Max: uint8(raw & 0x7F),
		Min: uint8(raw >> 8 & 0x7F),
	}
}

// RatioToFrequency converts an uncore (or core) 100 MHz multiplier to a
// frequency.
func RatioToFrequency(ratio uint8) units.Frequency {
	return units.Frequency(ratio) * UncoreRatioMHz * units.Megahertz
}

// FrequencyToRatio converts a frequency to the nearest 100 MHz multiplier.
func FrequencyToRatio(f units.Frequency) uint8 {
	r := math.Round(f.MHz() / UncoreRatioMHz)
	if r < 0 {
		return 0
	}
	if r > 0x7F {
		return 0x7F
	}
	return uint8(r)
}

// EncodeEnergyCounter converts an accumulated energy to the wrapping 32-bit
// counter representation with the given per-LSB unit.
func EncodeEnergyCounter(unit units.Energy, total units.Energy) uint64 {
	if unit <= 0 {
		return 0
	}
	ticks := uint64(float64(total) / float64(unit))
	return ticks & 0xFFFFFFFF
}

// EnergyCounterDelta returns the energy elapsed between two 32-bit counter
// readings, accounting for at most one wraparound.
func EnergyCounterDelta(unit units.Energy, before, after uint64) units.Energy {
	b := before & 0xFFFFFFFF
	a := after & 0xFFFFFFFF
	var ticks uint64
	if a >= b {
		ticks = a - b
	} else {
		ticks = (1<<32 - b) + a
	}
	return units.Energy(float64(ticks) * float64(unit))
}

// String formats the limit for diagnostics.
func (l PkgPowerLimit) String() string {
	return fmt.Sprintf("PL1{%.1f W/%.3fs en=%t} PL2{%.1f W/%.3fs en=%t} locked=%t",
		float64(l.PL1.Limit), l.PL1.Window, l.PL1.Enabled,
		float64(l.PL2.Limit), l.PL2.Window, l.PL2.Enabled, l.Locked)
}
