// Package opts holds the option type of the reach control.
package opts

// Config: main sets Main through & and Window with a key, this package alone
// sets Own (in a literal and in an assignment), and nothing sets Nothing.
type Config struct {
	Main    int
	Own     int
	Nothing int
	Window  WindowSpec
}

// WindowSpec is set by position, in an unkeyed literal.
type WindowSpec struct{ Lo, Hi int }

var fallback = Config{Own: 1}

// WithDefaults fills in Own.
func (c Config) WithDefaults() Config {
	if c.Own == 0 {
		c.Own = fallback.Own
	}
	return c
}
