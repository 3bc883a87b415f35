package loadgen

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Profile shapes the workload's recipient draw over time. The uniform-ish
// default workload is what the §3.1.1 static optimizer was built for; these
// profiles are the conditions it was NOT built for — skew it cannot see at
// assignment time — and are what the online placement policies race on.
type Profile struct {
	// Kind selects the shape: "" (uniform — the historical workload,
	// untouched), "hotspot", "diurnal", or "flash".
	Kind string

	// HotHosts is how many hosts absorb the skew (hotspot/flash; default 1).
	HotHosts int
	// HotFraction is the probability a recipient draw targets the hot set
	// while the skew is active (default 0.8).
	HotFraction float64

	// Period is the diurnal wave length in ticks (default 200). Each region's
	// wave is phase-shifted by its index, so load rolls around the regions
	// the way daylight rolls around time zones.
	Period int

	// FlashStart/FlashLen bound the flash-crowd window in ticks (defaults
	// 40/60). Outside the window traffic is the uniform baseline; inside it
	// the hot set lights up AND senders think at thinkMin, so the spike is
	// both skewed and intense.
	FlashStart, FlashLen int
}

func (p Profile) withDefaults() Profile {
	if p.HotHosts <= 0 {
		p.HotHosts = 1
	}
	if p.HotFraction <= 0 {
		p.HotFraction = 0.8
	}
	if p.Period <= 0 {
		p.Period = 200
	}
	if p.FlashStart <= 0 {
		p.FlashStart = 40
	}
	if p.FlashLen <= 0 {
		p.FlashLen = 60
	}
	return p
}

// active reports whether the profile skews the draw at this tick.
func (p Profile) active(tick int) bool {
	switch p.Kind {
	case "hotspot", "diurnal":
		return true
	case "flash":
		return tick >= p.FlashStart && tick < p.FlashStart+p.FlashLen
	}
	return false
}

// regionWeight is the diurnal wave: region r's relative traffic share at a
// tick, 1+sin phased by region so the peak rolls region to region.
func (p Profile) regionWeight(r, regions, tick int) float64 {
	phase := 2 * math.Pi * (float64(tick)/float64(p.Period) + float64(r)/float64(regions))
	return 1 + math.Sin(phase)
}

// ParseProfile parses a -profile flag value: "hotspot[:hosts[:fraction%]]",
// "diurnal[:period]", "flash[:start:len]", or "" / "uniform" for the
// unshaped baseline.
func ParseProfile(s string) (Profile, error) {
	parts := strings.Split(s, ":")
	var p Profile
	num := func(i int) (int, error) {
		n, err := strconv.Atoi(parts[i])
		if err != nil || n <= 0 {
			return 0, fmt.Errorf("loadgen: bad profile parameter %q in %q", parts[i], s)
		}
		return n, nil
	}
	var err error
	switch parts[0] {
	case "", "uniform":
		return Profile{}, nil
	case "hotspot", "flash", "diurnal":
		p.Kind = parts[0]
	default:
		return Profile{}, fmt.Errorf("loadgen: unknown profile %q (want hotspot, diurnal, flash or uniform)", parts[0])
	}
	switch p.Kind {
	case "hotspot":
		if len(parts) > 1 {
			if p.HotHosts, err = num(1); err != nil {
				return Profile{}, err
			}
		}
		if len(parts) > 2 {
			pct, err := num(2)
			if err != nil || pct > 100 {
				return Profile{}, fmt.Errorf("loadgen: bad hot fraction in %q", s)
			}
			p.HotFraction = float64(pct) / 100
		}
	case "diurnal":
		if len(parts) > 1 {
			if p.Period, err = num(1); err != nil {
				return Profile{}, err
			}
		}
	case "flash":
		if len(parts) > 1 {
			if p.FlashStart, err = num(1); err != nil {
				return Profile{}, err
			}
		}
		if len(parts) > 2 {
			if p.FlashLen, err = num(2); err != nil {
				return Profile{}, err
			}
		}
	}
	if len(parts) > 3 {
		return Profile{}, fmt.Errorf("loadgen: too many profile parameters in %q", s)
	}
	return p.withDefaults(), nil
}
