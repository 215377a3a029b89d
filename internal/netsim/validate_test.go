package netsim

import (
	"strings"
	"testing"
	"time"

	"mobileqoe/internal/sim"
	"mobileqoe/internal/units"
)

// Validate runs on a fully-resolved config (New applies setDefaults first),
// so each case here starts from the defaulted zero config and corrupts one
// field.
func defaulted(mutate func(*Config)) Config {
	cfg := Config{ChargeCPU: true}
	cfg.setDefaults()
	mutate(&cfg)
	return cfg
}

func TestConfigValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // substring the error must mention
	}{
		{"negative loss", func(c *Config) { c.Loss = -0.1 }, "Loss"},
		{"loss of one", func(c *Config) { c.Loss = 1.0 }, "Loss"},
		{"loss above one", func(c *Config) { c.Loss = 1.5 }, "Loss"},
		{"negative rtt", func(c *Config) { c.RTT = -time.Millisecond }, "RTT"},
		{"negative rate", func(c *Config) { c.Rate = -units.Mbps(1) }, "Rate"},
		{"mac efficiency above one", func(c *Config) { c.MACEfficiency = 1.5 }, "MACEfficiency"},
		{"negative mac efficiency", func(c *Config) { c.MACEfficiency = -0.5 }, "MACEfficiency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaulted(tc.mutate)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("invalid config validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %s", err, tc.want)
			}
		})
	}
}

func TestConfigValidateAcceptsDefaults(t *testing.T) {
	if err := defaulted(func(*Config) {}).Validate(); err != nil {
		t.Fatalf("defaulted config rejected: %v", err)
	}
	// Loss strictly below 1 is a legal (terrible) link.
	if err := defaulted(func(c *Config) { c.Loss = 0.999 }).Validate(); err != nil {
		t.Fatalf("0.999 loss rejected: %v", err)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New accepted Loss = 1")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "invalid config") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	New(sim.New(), nil, Config{Loss: 1.0})
}
