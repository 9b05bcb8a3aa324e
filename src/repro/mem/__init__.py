"""Physical memory substrate: address geometry and the DRAM backend."""
