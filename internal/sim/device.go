package sim

import (
	"fmt"
	"sync"
	"time"
)

// DeviceClass identifies the modelled hardware class of a Device.
type DeviceClass int

// Device classes modelled after the hardware in the paper's evaluation
// cluster (Section VII-C): storage-class memory used as a cache in Set-2,
// NVMe SSD and SAS HDD pools, and the two interconnect paths of the data
// exchange bus.
const (
	SCM DeviceClass = iota
	NVMeSSD
	SASHDD
	Net10GbE
	NetRDMA
)

// String returns a short human-readable name for the class.
func (c DeviceClass) String() string {
	switch c {
	case SCM:
		return "scm"
	case NVMeSSD:
		return "nvme-ssd"
	case SASHDD:
		return "sas-hdd"
	case Net10GbE:
		return "10gbe"
	case NetRDMA:
		return "rdma"
	default:
		return fmt.Sprintf("device-class-%d", int(c))
	}
}

// DeviceSpec is the analytic cost model for a device: a fixed
// per-operation latency plus a bandwidth (bytes per second) term, and a
// capacity for storage devices (zero means unlimited, used for links).
type DeviceSpec struct {
	Class          DeviceClass
	ReadLatency    time.Duration
	WriteLatency   time.Duration
	ReadBandwidth  int64 // bytes/second
	WriteBandwidth int64 // bytes/second
	Capacity       int64 // bytes; 0 = unlimited
}

// Spec returns the default calibrated specification for a device class.
// The numbers are order-of-magnitude figures for the hardware named in
// Section VII-C (NVMe SSD, SAS HDD, 16 GB persistent memory, 10 Gb
// ethernet) plus an RDMA path for the data exchange bus.
func Spec(class DeviceClass) DeviceSpec {
	switch class {
	case SCM:
		return DeviceSpec{
			Class:          SCM,
			ReadLatency:    300 * time.Nanosecond,
			WriteLatency:   500 * time.Nanosecond,
			ReadBandwidth:  8 << 30, // 8 GB/s
			WriteBandwidth: 6 << 30,
			Capacity:       16 << 30, // 16 GB, per Set-2
		}
	case NVMeSSD:
		return DeviceSpec{
			Class:          NVMeSSD,
			ReadLatency:    80 * time.Microsecond,
			WriteLatency:   20 * time.Microsecond,
			ReadBandwidth:  3 << 30, // 3 GB/s
			WriteBandwidth: 2 << 30,
			Capacity:       800 << 30, // 800 GB NVMe, per Set-1
		}
	case SASHDD:
		return DeviceSpec{
			Class:          SASHDD,
			ReadLatency:    8 * time.Millisecond,
			WriteLatency:   8 * time.Millisecond,
			ReadBandwidth:  200 << 20, // 200 MB/s
			WriteBandwidth: 180 << 20,
			Capacity:       10 << 40, // 10 TB per spindle
		}
	case Net10GbE:
		return DeviceSpec{
			Class:          Net10GbE,
			ReadLatency:    50 * time.Microsecond, // kernel TCP/IP stack
			WriteLatency:   50 * time.Microsecond,
			ReadBandwidth:  1250 << 20, // 10 Gb/s
			WriteBandwidth: 1250 << 20,
		}
	case NetRDMA:
		return DeviceSpec{
			Class:          NetRDMA,
			ReadLatency:    3 * time.Microsecond, // kernel bypass
			WriteLatency:   3 * time.Microsecond,
			ReadBandwidth:  5 << 30, // 40 Gb/s class fabric
			WriteBandwidth: 5 << 30,
		}
	default:
		return DeviceSpec{Class: class, ReadBandwidth: 1 << 30, WriteBandwidth: 1 << 30}
	}
}

// DeviceStats is a snapshot of a device's accumulated activity.
type DeviceStats struct {
	ReadOps    int64
	WriteOps   int64
	ReadBytes  int64
	WriteBytes int64
	BusyTime   time.Duration
	Used       int64 // bytes currently allocated (storage devices)
}

// Device is a simulated storage device or network link. Read and Write
// return the modelled duration of the operation and accumulate busy time
// and byte counters for utilization reporting.
type Device struct {
	spec DeviceSpec
	name string

	mu    sync.Mutex
	stats DeviceStats
}

// NewDevice creates a device with the given name and spec.
func NewDevice(name string, spec DeviceSpec) *Device {
	return &Device{spec: spec, name: name}
}

// NewDeviceOf creates a device of the given class with its default spec.
func NewDeviceOf(name string, class DeviceClass) *Device {
	return NewDevice(name, Spec(class))
}

// Spec returns the device's cost model.
func (d *Device) Spec() DeviceSpec { return d.spec }

func transferTime(n int64, bw int64) time.Duration {
	if bw <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(bw) * float64(time.Second))
}

func (d *Device) readDur(n int64) time.Duration {
	return d.spec.ReadLatency + transferTime(n, d.spec.ReadBandwidth)
}

func (d *Device) writeDur(n int64) time.Duration {
	return d.spec.WriteLatency + transferTime(n, d.spec.WriteBandwidth)
}

// Read charges the cost of reading n bytes and returns the modelled
// duration.
func (d *Device) Read(n int64) time.Duration {
	d.mu.Lock()
	dur := d.readDur(n)
	d.stats.ReadOps++
	d.stats.ReadBytes += n
	d.stats.BusyTime += dur
	d.mu.Unlock()
	return dur
}

// Write charges the cost of writing n bytes and returns the modelled
// duration.
func (d *Device) Write(n int64) time.Duration {
	d.mu.Lock()
	dur := d.writeDur(n)
	d.stats.WriteOps++
	d.stats.WriteBytes += n
	d.stats.BusyTime += dur
	d.mu.Unlock()
	return dur
}

// RefundWrite reverses the accounting of one Write of n bytes. Redundant
// writes are issued in parallel; when enough of a placement group fails
// that the whole operation is abandoned, the survivors' charges are
// refunded so failed operations leave utilization stats unchanged.
func (d *Device) RefundWrite(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dur := d.writeDur(n)
	d.stats.WriteOps--
	d.stats.WriteBytes -= n
	d.stats.BusyTime -= dur
	if d.stats.WriteOps < 0 {
		d.stats.WriteOps = 0
	}
	if d.stats.WriteBytes < 0 {
		d.stats.WriteBytes = 0
	}
	if d.stats.BusyTime < 0 {
		d.stats.BusyTime = 0
	}
}

// Alloc reserves n bytes of capacity. It returns an error when the device
// has a finite capacity and the allocation would exceed it.
func (d *Device) Alloc(n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.spec.Capacity > 0 && d.stats.Used+n > d.spec.Capacity {
		return fmt.Errorf("sim: device %s full: used %d + %d > capacity %d",
			d.name, d.stats.Used, n, d.spec.Capacity)
	}
	d.stats.Used += n
	return nil
}

// Free releases n bytes of previously allocated capacity.
func (d *Device) Free(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Used -= n
	if d.stats.Used < 0 {
		d.stats.Used = 0
	}
}

// Used reports the bytes currently allocated on the device.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats.Used
}

// Stats returns a snapshot of the device's accumulated activity.
func (d *Device) Stats() DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
