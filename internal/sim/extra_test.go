package sim

import "testing"

func TestDeviceClassStrings(t *testing.T) {
	cases := map[DeviceClass]string{
		SCM: "scm", NVMeSSD: "nvme-ssd", SASHDD: "sas-hdd",
		Net10GbE: "10gbe", NetRDMA: "rdma",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Fatalf("%d.String() = %q", c, c.String())
		}
	}
	if DeviceClass(99).String() == "" {
		t.Fatal("unknown class has empty name")
	}
}

func TestSpecUnknownClassHasSaneDefaults(t *testing.T) {
	s := Spec(DeviceClass(42))
	if s.ReadBandwidth <= 0 || s.WriteBandwidth <= 0 {
		t.Fatalf("default spec: %+v", s)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(-1) did not panic")
		}
	}()
	NewRNG(1).Int63n(-1)
}

func TestZeroSeedRemapped(t *testing.T) {
	a := NewRNG(0)
	if a.Uint64() == 0 {
		t.Fatal("zero-seed generator degenerate")
	}
}
